"""Confusion matrices, per-class detection / false-positive rates, and the
five-way model comparison (proposed pipeline against naive-Bayes and
information-gain-tree baselines on the full and reduced attribute sets).

Detection rate of a class is the percentage of its true examples predicted
as that class. The per-class false-positive rate is the percentage of all
examples *not* of the class that are predicted as it; the classic scalar
variant (misclassified normal traffic over all normal traffic) is reported
separately as ``normal_fp``. Rates with an empty denominator are reported
as undefined ("n/a"), never as 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .attribute_weighting import (
    SelectionParams,
    SelectionResult,
    build_weighted_tree,
    select_attributes,
)
from . import dataset as _dataset
from .dataset import WeightedDataset, project_attributes
from .exceptions import EvaluationError, NbtreeIdsError, SchemaError, TrainingError
from .nbtree import NBTreeParams, build_nbtree
from .probability import column_ranks, fit_naive_bayes


@dataclass
class ConfusionMatrix:
    """Counts indexed (true class, predicted class) in schema class order."""

    classes: tuple[str, ...]
    counts: np.ndarray

    @classmethod
    def from_indices(cls, truth: np.ndarray, predicted: np.ndarray,
                     classes: tuple[str, ...]) -> "ConfusionMatrix":
        k = len(classes)
        counts = np.bincount(truth * k + predicted, minlength=k * k).reshape(k, k)
        return cls(classes, counts.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def index(self, class_name: str) -> int:
        try:
            return self.classes.index(class_name)
        except ValueError:
            raise SchemaError(f"unknown class {class_name!r}") from None

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "counts": [[int(c) for c in row] for row in self.counts],
        }


def detection_rate(matrix: ConfusionMatrix, class_name: str) -> float | None:
    """Percentage of true class examples predicted as that class; None when
    the class has no true examples."""
    i = matrix.index(class_name)
    support = int(matrix.counts[i].sum())
    if support == 0:
        return None
    return float(matrix.counts[i, i]) / support * 100.0


def false_positive_rate(matrix: ConfusionMatrix, class_name: str) -> float | None:
    """Percentage of non-class examples predicted as the class; None when
    every example truly belongs to the class."""
    i = matrix.index(class_name)
    others = np.delete(np.arange(len(matrix.classes)), i)
    denom = int(matrix.counts[others].sum())
    if denom == 0:
        return None
    return float(matrix.counts[others, i].sum()) / denom * 100.0


def normal_false_positive(matrix: ConfusionMatrix, normal_class: str = "Normal") -> float | None:
    """Misclassified normal traffic over all normal traffic, as a percent."""
    i = matrix.index(normal_class)
    denom = int(matrix.counts[i].sum())
    if denom == 0:
        return None
    wrong = denom - int(matrix.counts[i, i])
    return wrong / denom * 100.0


def accuracy(matrix: ConfusionMatrix) -> float:
    return float(np.trace(matrix.counts)) / matrix.total if matrix.total else 0.0


@dataclass
class EvalReport:
    """One model evaluated on one test set; its rates are read from ``matrix``."""

    model_id: str
    dataset_id: str
    attribute_count: int
    matrix: ConfusionMatrix
    wall_clock_sec: float

    @property
    def classes(self) -> tuple[str, ...]:
        return self.matrix.classes

    @property
    def per_class(self) -> list[dict]:
        m = self.matrix
        return [{"class": c, "dr": detection_rate(m, c), "fp": false_positive_rate(m, c),
                 "support": int(support)} for c, support in zip(m.classes, m.row_sums())]

    @property
    def accuracy(self) -> float:
        return accuracy(self.matrix)

    @property
    def normal_fp(self) -> float | None:
        return normal_false_positive(
            self.matrix, "Normal" if "Normal" in self.classes else self.classes[0])

    def add(self, part: "EvalReport") -> None:
        """Count in this report ``part``, the same model's report on more
        of the test set: its confusion counts and predict seconds. A part
        that scored no row names no dataset."""
        self.matrix.counts += part.matrix.counts
        self.wall_clock_sec += part.wall_clock_sec
        self.dataset_id = self.dataset_id or part.dataset_id

    def to_dict(self) -> dict:
        return {
            "format": "eval-report/1",
            "model_id": self.model_id,
            "dataset_id": self.dataset_id,
            "attribute_count": self.attribute_count,
            "classes": list(self.classes),
            "per_class": self.per_class,
            "accuracy": self.accuracy,
            "normal_fp": self.normal_fp,
            "confusion": self.matrix.to_dict(),
            "wall_clock_sec": self.wall_clock_sec,
        }

    def to_text(self) -> str:
        def fmt(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.2f}"

        lines = [
            f"model: {self.model_id}   test: {self.dataset_id}   "
            f"attributes: {self.attribute_count}",
            f"{'class':<10} {'DR (%)':>8} {'FP (%)':>8} {'support':>9}",
        ]
        for row in self.per_class:
            lines.append(
                f"{row['class']:<10} {fmt(row['dr']):>8} {fmt(row['fp']):>8} "
                f"{row['support']:>9}"
            )
        lines.append(
            f"accuracy: {self.accuracy * 100:.2f}%   normal-fp: {fmt(self.normal_fp)}%   "
            f"wall: {self.wall_clock_sec:.2f}s"
        )
        return "\n".join(lines) + "\n"


def project_for_model(model, test: WeightedDataset) -> WeightedDataset:
    """The test set as ``model`` sees it: unchanged when the schemas match,
    else projected onto the model's attributes. Raises
    :class:`EvaluationError` when no projection matches the model's schema
    and class order."""
    seen = test
    if (model.schema_hash != test.schema.structural_hash()
            and set(model.attribute_names).issubset(test.schema.attribute_names)):
        seen = project_attributes(test, model.attribute_names)
    if (model.schema_hash == seen.schema.structural_hash()
            and tuple(model.classes) == seen.schema.class_names):
        return seen
    raise EvaluationError(
        f"model {model.model_id!r} does not match the test "
        "schema (attribute names/kinds or class order differ)"
    )


def evaluate_batches(models: Sequence, batches: Iterable[WeightedDataset]) -> list[EvalReport]:
    """Classify each test batch in turn, projected onto each model's
    attributes (``project_for_model``), and add up each model's confusion
    counts and predict seconds. A model is a naive-Bayes model, gain tree
    or NB-tree. An unexpected failure of a model is raised as
    :class:`EvaluationError` naming its type; the batches' own errors
    pass as they are."""
    reports = [EvalReport(m.model_id, None, m.attribute_count, ConfusionMatrix(
        tuple(m.classes), np.zeros((len(m.classes),) * 2, int)), 0.0) for m in models]
    for batch in batches:
        for model, report in zip(models, reports):
            try:
                seen = project_for_model(model, batch)
                start = time.perf_counter()
                pred = model.predict_dataset(seen)
                seconds = time.perf_counter() - start
                matrix = ConfusionMatrix.from_indices(seen.labels, pred, report.classes)
            except NbtreeIdsError:
                raise
            except Exception as exc:  # surface unexpected failures as evaluation errors
                raise EvaluationError(f"{type(exc).__name__}: {exc}") from exc
            report.add(EvalReport(report.model_id, batch.dataset_id, report.attribute_count,
                                  matrix, seconds))
        batch = seen = None   # hold no batch while the next is read
    return reports


def evaluate(model, test: WeightedDataset, model_id: str | None = None) -> EvalReport:
    """``model`` scored on ``test`` as one batch of ``evaluate_batches``."""
    (report,) = evaluate_batches([model], [test])
    report.model_id = model_id or report.model_id
    return report


# -- the five-way comparison ---------------------------------------------------


@dataclass
class ComparisonConfig:
    """What to train and how. The proposed NB-tree is built with ``nbtree``
    on what the weighting pass (``selection``) leaves: the reduced
    attributes and each example's posterior weight, against the load-time
    labels. The baselines are the weighting pass's own learners without
    the posterior weighting, so they take their smoothing, bins, depth and
    leaf floor from ``selection``."""

    selection: SelectionParams = field(default_factory=SelectionParams)
    nbtree: NBTreeParams = field(default_factory=NBTreeParams)
    baselines: bool = True


@dataclass
class ComparisonBundle:
    """Reports for the proposed pipeline and any baselines, plus the
    attribute selection they share."""

    selection: SelectionResult
    reports: list[EvalReport]
    models: dict = field(default_factory=dict)

    @property
    def kept_attributes(self) -> list[str]:
        return list(self.selection.weights.kept_names())

    def to_dict(self) -> dict:
        return {
            "format": "comparison/1",
            "selection": self.selection.to_dict(),
            "kept_attributes": self.kept_attributes,
            "reports": [r.to_dict() for r in self.reports],
        }

    def to_text(self) -> str:
        parts = [self.selection.to_text()]
        parts.extend(r.to_text() for r in self.reports)
        return "\n".join(parts)


def train_models(train: WeightedDataset, config: ComparisonConfig | None = None,
                 seconds: dict | None = None):
    """Run the attribute weighting once and train the proposed NB-tree on
    the reduced attributes, plus plain NB and gain-tree baselines on the
    full and reduced attribute sets unless baselines are disabled.
    ``seconds``, when given, receives each baseline's wall seconds by
    model id.

    The NB-tree trains on ``selection.reduced``: the posterior weights
    over the reduced attributes, with the load-time labels. Baselines
    train on ``train`` with uniform weights. The weighting pass and the
    NB-tree are the first item of one ``dataset.fork_map`` call, run in
    this process; with more than one usable CPU the full baselines are its
    second, fitted meanwhile in a forked process so that their seconds
    overlap, else this process fits them next. The reduced baselines
    follow here, as they need the kept attributes. Models and their order
    do not depend on the CPUs, and the weighting pass's or the NB-tree's
    error is raised before the full baselines'.
    Returns (selection result, ordered {model_id: model}). An unexpected
    failure is raised as :class:`TrainingError`.
    """
    try:
        return _train_models(train, config or ComparisonConfig(),
                             {} if seconds is None else seconds)
    except NbtreeIdsError:
        raise
    except Exception as exc:  # surface unexpected failures as training errors
        raise TrainingError(str(exc)) from exc


def _train_models(train: WeightedDataset, config: ComparisonConfig, seconds: dict):
    params = config.selection
    plain = train.with_uniform_weights()

    def baselines(suffix: str, ds: WeightedDataset):
        """The NB and gain-tree baselines on ``ds``, and their seconds."""
        start = time.perf_counter()
        nb = fit_naive_bayes(ds, k=params.smoothing_k, bins=params.bins)
        nb.model_id = f"nb-{suffix}"
        fitted = time.perf_counter()
        tree = build_weighted_tree(ds, max_depth=params.max_depth,
                                   min_leaf_examples=params.min_leaf_examples)
        tree.model_id = f"tree-{suffix}"
        return ({nb.model_id: nb, tree.model_id: tree},
                {nb.model_id: fitted - start, tree.model_id: time.perf_counter() - fitted})

    def proposed():
        selection = select_attributes(train, params)
        nbt = build_nbtree(selection.reduced,
                           selection.weights.as_array(selection.weights.kept_names()),
                           config.nbtree)
        nbt.model_id = "proposed-nbtree"
        return selection, nbt

    # sort each continuous column once, as the weighting pass's first fit
    # would, so that a process forked now shares the sorts
    for j, spec in enumerate(train.schema.attributes):
        if not spec.is_discrete:
            column_ranks(train, j)
    # the full baselines need no selection: with a second usable CPU a
    # forked process fits them meanwhile, else this one after proposed()
    (selection, nbt), *full = _dataset.fork_map(
        "full baselines", 1 + int(config.baselines and _dataset._max_processes() > 1),
        lambda k: baselines("full", plain) if k else proposed(), TrainingError)
    models: dict[str, object] = {"proposed-nbtree": nbt}
    if config.baselines:
        full = full or [baselines("full", plain)]
        reduced = baselines("reduced", project_attributes(plain, selection.weights.kept_names()))
        for part, part_seconds in (*full, reduced):
            models.update(part)
            seconds.update(part_seconds)
    return selection, models


def run_comparison(
    train: WeightedDataset,
    test: WeightedDataset,
    config: ComparisonConfig | None = None,
    seconds: dict | None = None,
) -> ComparisonBundle:
    """Train the proposed pipeline and any baselines (``seconds`` as in
    ``train_models``), then evaluate each on the test set."""
    selection, models = train_models(train, config, seconds)
    reports = [evaluate(model, test, model_id=model.model_id) for model in models.values()]
    return ComparisonBundle(selection, reports, models)
