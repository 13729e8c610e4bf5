"""Command-line driver.

Commands: ``inspect`` (dataset composition), ``select`` (attribute
weighting), ``train`` (proposed model plus baselines), ``eval`` (score
saved models on a labeled test set), ``compare`` (select, train and eval
in one run). Every run resolves its configuration from an optional JSON
config file plus flag overrides, hashes it, and writes all artifacts under
``<out>/run-<hash>/`` with the resolved config embedded, so identical
configurations re-produce identical artifacts (timing fields aside).

Exit codes: 0 success, 1 usage or configuration (also a run directory
that cannot be written), 2 data format, 3 training failure, 4 evaluation
failure. A fault the program did not expect exits with the code of its
stage (reading a record or model file, or sampling or splitting the
records read, 2; training 3; scoring 4) and one line on stderr that
names the fault's type; no stage leaves ``main`` with a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribute_weighting import (
    DecisionTree,
    SelectionParams,
    SelectionResult,
    select_attributes,
)
from .dataset import (
    ClassCounts,
    LoadReport,
    WeightedDataset,
    class_counts,
    load_dataset,
    load_schema_file,
    load_taxonomy_file,
    map_batches,
    stratified_sample,
    stratified_split,
)
from .evaluation import (
    ComparisonConfig,
    EvalReport,
    evaluate_batches,
    run_comparison,
    train_models,
)
from .exceptions import (
    ConfigError,
    DataFormatError,
    EvaluationError,
    SchemaError,
    TrainingError,
    unexpected_as,
)
from .kdd99 import kdd99_schema, kdd99_taxonomy
from .nbtree import NBTree, NBTreeParams
from .probability import NaiveBayesModel

DATA_DIR_ENV = "NBTREE_IDS_DATA"
_MODEL_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")
# rows eval reads and scores at once, so it never holds the whole test set
_EVAL_BATCH_ROWS = 8_192


def _setting(default, doc: str):
    """A ``RunConfig`` field whose flag shows ``doc`` as its help."""
    return dataclasses.field(default=default, metadata={"help": doc})


@dataclass
class RunConfig:
    """Resolved run configuration. Each field is a config-file key and a
    ``--<name>`` flag of every command (``--<name>/--no-<name>`` for a
    bool, one or more values for a list), typed by the field's annotation,
    with the field's help. A model setting's default and range are those
    of the library class it sets."""

    train: str | None = _setting(None, "training records (comma-separated, 42 fields)")
    test: str | None = _setting(None, "test records")
    schema: str | None = _setting(None, "schema file (default: built-in KDD99 schema)")
    taxonomy: str | None = _setting(None, "attack-name mapping file (default: built-in)")
    out: str = _setting("runs", "output root (default: runs)")
    seed: int | None = _setting(None, "seed for sampling/splitting")
    smoothing_k: float = _setting(
        NBTreeParams.smoothing_k, "add-k smoothing strength, in average-example units")
    bins: int = _setting(NBTreeParams.bins, "equal-frequency bins for continuous attributes")
    folds: int = _setting(NBTreeParams.folds, "cross-validation folds for split utility")
    significance_pct: float = _setting(
        NBTreeParams.significance * 100, "required relative error reduction for a split (percent)")
    min_split_examples: float = _setting(
        NBTreeParams.min_split_examples, "example-mass floor for trying a split")
    nbtree_max_depth: int = _setting(
        NBTreeParams.max_depth, "depth limit of the NB-tree (the root is depth 1)")
    relabel: bool = _setting(
        SelectionParams.relabel, "relabel examples to their argmax posterior during weighting")
    iterations: int = _setting(SelectionParams.iterations, "reweighting passes before the tree")
    weighting_max_depth: int | None = _setting(
        SelectionParams.max_depth, "depth limit of the weighting tree")
    weighting_min_leaf_examples: float = _setting(
        SelectionParams.min_leaf_examples,
        "example-mass floor of a weighting-tree node; a lighter node is a leaf")
    baselines: bool = _setting(
        ComparisonConfig.baselines, "train NB / gain-tree baselines alongside the pipeline")
    sample_fraction: float | None = _setting(None, "stratified subsample of the training file")
    test_fraction: float | None = _setting(
        None, "hold out this fraction of train as test (when no --test)")
    permissive: bool = _setting(False, "skip bad records and extend domains instead of aborting")
    models: list[str] | None = _setting(None, "model files to evaluate")

    def validate(self) -> None:
        for name in ("sample_fraction", "test_fraction"):
            value = getattr(self, name)
            if value is not None and not 0 < value < 1:
                raise ConfigError(f"{name} must be in (0, 1)")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # each setting alone on the defaults, so a range error names its key
        # even where the library's parameter has another name (significance)
        for f in dataclasses.fields(self):
            try:
                dataclasses.replace(RunConfig(), **{f.name: getattr(self, f.name)}
                                    ).comparison_config()
            except ValueError as exc:
                raise ConfigError(f"{f.name}: {exc}") from None

    def require_seed(self, why: str) -> int:
        if self.seed is None:
            raise ConfigError(f"--seed is required when {why}")
        return self.seed

    def resolved(self) -> dict:
        """Canonical dict for hashing and embedding; the output directory is
        excluded so runs into different directories stay comparable, and
        unset model files so the commands that take none hash as before."""
        doc = dataclasses.asdict(self)
        doc.pop("out")
        if self.models is None:
            doc.pop("models")
        return doc

    def config_hash(self) -> str:
        raw = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()[:12]

    def _build(self, cls, **renamed):
        """A ``cls`` given this config's fields of the same names, and ``renamed``."""
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)
                      if f.name in vars(self)}, **renamed)

    def selection_params(self) -> SelectionParams:
        return self._build(SelectionParams, max_depth=self.weighting_max_depth,
                           min_leaf_examples=self.weighting_min_leaf_examples)

    def nbtree_params(self) -> NBTreeParams:
        return self._build(NBTreeParams, significance=self.significance_pct / 100.0,
                           max_depth=self.nbtree_max_depth)

    def comparison_config(self) -> ComparisonConfig:
        return self._build(ComparisonConfig, selection=self.selection_params(),
                           nbtree=self.nbtree_params())


def _resolve_path(path: str | None) -> str | None:
    """Paths resolve against $NBTREE_IDS_DATA when not found as given."""
    if path is None:
        return None
    base = os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


# the JSON values a RunConfig field type takes, where they are not its own
_JSON_TYPES = {float: (int, float), list[str]: list}


def _field_types() -> dict[str, tuple[type, ...]]:
    """Each ``RunConfig`` field's types: the members of its annotation's
    union, the flag's type first, or the annotation alone."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(RunConfig).items()}


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        unknown = set(doc) - fields.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        field_types = _field_types()
        for key, value in doc.items():
            types = field_types[key]
            # a bool field takes only true or false, and no other field a bool;
            # a list field takes only strings
            if not any(isinstance(value, bool) == (t is bool)
                       and isinstance(value, _JSON_TYPES.get(t, t)) for t in types) or (
                    isinstance(value, list) and not all(isinstance(v, str) for v in value)):
                raise ConfigError(f"config key {key!r} must be {fields[key].type}, not {value!r}")
            # a JSON integer for a float field hashes as the same flag would
            try:
                values[key] = float(value) if float in types and value is not None else value
            except OverflowError:
                raise ConfigError(f"config key {key!r} is too large for a real number") from None
    for f in dataclasses.fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    config = RunConfig(**values)
    config.validate()
    return config


# -- shared run machinery ------------------------------------------------------


class _Run:
    """One run: its config and the artifacts the command makes, held until
    ``save`` writes them all under ``<out>/run-<hash>/``.

    ``run_info.json`` holds what may differ between identical runs: the
    start time, the counters of every record file the run loaded, any
    attribute selection's and NB-tree build's counters, the seconds of the
    other stages (``stage_s``: sample or split, each baseline by model id,
    and the models' scoring) and the peak RSS when the command ends."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.hash = config.config_hash()
        self.dir = Path(config.out) / f"run-{self.hash}"
        self.artifacts: dict[str, str] = {}  # path in the run directory -> text
        self.write_json("config.json", {"format": "run-config/1"})
        self.info = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"),
                     "config_hash": self.hash, "loads": [], "stage_s": {}}

    def write_json(self, rel: str, doc: dict) -> None:
        doc = dict(doc)
        doc["config_hash"] = self.hash
        doc["config"] = self.config.resolved()
        self.artifacts[rel] = json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def write_text(self, rel: str, text: str) -> None:
        self.artifacts[rel] = f"# config {self.hash}\n{text}"

    def save(self) -> None:
        """Write the run directory: every artifact, then ``run_info.json``."""
        files = {**self.artifacts, "run_info.json": json.dumps(self.info, indent=1) + "\n"}
        with unexpected_as(ConfigError, f"cannot write run directory {self.dir}: "):
            for rel, text in files.items():
                path = self.dir / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")


def _schema_and_taxonomy(config: RunConfig):
    schema = load_schema_file(_resolve_path(config.schema)) if config.schema else kdd99_schema()
    taxonomy = (load_taxonomy_file(_resolve_path(config.taxonomy))
                if config.taxonomy else kdd99_taxonomy())
    return schema, taxonomy


def _peak_rss_mb() -> float:
    """The peak resident set size so far of this process or of any worker
    it waited for (one that read or scored a range of a record file,
    searched a node or fitted baselines), in MB (Linux counts KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _load_entry(source: str | None, report: LoadReport) -> dict:
    return {
        "source": source,
        "records": report.n_loaded,
        "skipped": report.skipped,
        "skip_reasons": report.reasons,
        "load_s": report.seconds,
        "records_per_s": report.n_loaded / report.seconds,
        "reader_lines": report.reader_lines,
        "fallback_lines": report.fallback_lines,
        "readers": report.readers,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _load(run: _Run, path: str, schema, taxonomy) -> WeightedDataset:
    """Load one record file and add its loader counters to the run's ``loads``."""
    ds = load_dataset(_resolve_path(path), schema, taxonomy, permissive=run.config.permissive)
    run.info["loads"].append(_load_entry(ds.dataset_id, ds.load_report))
    return ds


def _load_train(run: _Run) -> tuple[WeightedDataset, dict[str, str]]:
    """``--train``, sampled when asked, and the taxonomy it was read by."""
    config = run.config
    if not config.train:
        raise ConfigError("--train is required for this command")
    schema, taxonomy = _schema_and_taxonomy(config)
    ds = _load(run, config.train, schema, taxonomy)
    if config.sample_fraction is not None:
        seed = config.require_seed("--sample-fraction is set")
        ds = _draw_rows(run, "sample", "--sample-fraction", stratified_sample,
                        ds, config.sample_fraction, seed)
    return ds, taxonomy


def _train_test(run: _Run) -> tuple[WeightedDataset, WeightedDataset]:
    config = run.config
    train, taxonomy = _load_train(run)
    if config.test:
        # test shares the train schema so symbol domains stay aligned
        return train, _load(run, config.test, train.schema, taxonomy)
    fraction = config.test_fraction
    if fraction is None:
        raise ConfigError("provide --test or --test-fraction")
    seed = config.require_seed("splitting the training file")
    return _draw_rows(run, "split", "--test-fraction", stratified_split, train, fraction, seed)


def _draw_rows(run: _Run, stage: str, flag: str, draw, ds: WeightedDataset, fraction: float,
               seed: int):
    """``draw(ds, fraction, seed)``, the sample or split ``stage`` of the
    loaded records ``ds``, timed as that stage. A fraction it rejects is a
    ``ConfigError`` naming ``flag``; it only selects rows, so a fault it
    did not expect is a data error naming the records' source."""
    start = time.perf_counter()
    with unexpected_as(DataFormatError, f"cannot {stage} {ds.dataset_id}: "):
        try:
            drawn = draw(ds, fraction, seed)
        except ValueError as exc:
            raise ConfigError(f"{flag} {fraction}: {exc}") from None
    run.info["stage_s"][stage] = time.perf_counter() - start
    return drawn


def load_model_file(path) -> NaiveBayesModel | DecisionTree | NBTree:
    """Dispatch a saved model document on its format tag. Any fault of
    the document is a ``DataFormatError`` naming the file."""
    with unexpected_as(DataFormatError, f"cannot read model file {path}: "):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    loaders = {cls.FORMAT: cls for cls in (NaiveBayesModel, DecisionTree, NBTree)}
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in loaders:
        raise DataFormatError(f"unrecognised model format {fmt!r} in {path}")
    try:
        model = loaders[fmt].from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError, DataFormatError, SchemaError) as exc:
        raise DataFormatError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from None
    # eval names its report files after the model_id
    if not (isinstance(model.model_id, str) and _MODEL_ID.fullmatch(model.model_id)):
        raise DataFormatError(f"malformed model file {path}: model_id {model.model_id!r} is not "
                              "letters, digits, '.', '_' and '-', not starting with '.'")
    return model


def _composition_doc(dataset_id: str, counts: ClassCounts, report: LoadReport | None) -> dict:
    doc = {
        "format": "composition/1",
        "dataset": dataset_id,
        "total": counts.total,
        "per_class": [
            {"class": c, "count": int(counts.counts[i]), "weight": float(counts.weighted[i])}
            for i, c in enumerate(counts.classes)
        ],
    }
    if report is not None and report.skipped:
        doc["skipped"] = report.skipped
        doc["skip_reasons"] = report.reasons
    return doc


def _composition_text(doc: dict) -> str:
    lines = [f"dataset: {doc['dataset']}", f"{'class':<10} {'count':>10}"]
    for row in doc["per_class"]:
        lines.append(f"{row['class']:<10} {row['count']:>10}")
    lines.append(f"{'total':<10} {doc['total']:>10}")
    if "skipped" in doc:
        lines.append(f"skipped {doc['skipped']} bad records")
    return "\n".join(lines) + "\n"


# -- commands --------------------------------------------------------------------


def cmd_inspect(run: _Run) -> None:
    ds, _ = _load_train(run)
    doc = _composition_doc(ds.dataset_id, class_counts(ds), ds.load_report)
    run.write_json("composition.json", doc)
    text = _composition_text(doc)
    run.write_text("composition.txt", text)
    print(text, end="")


def _write_selection(run: _Run, selection: SelectionResult) -> None:
    run.info["selection"] = selection.stats
    run.write_json("selection.json", selection.to_dict())
    run.write_text("selection.txt", selection.to_text())
    run.write_text("trees/weighting-tree.txt", selection.tree.dump())


def _write_reports(run: _Run, reports: list[EvalReport]) -> None:
    run.info["stage_s"]["score"] = sum(report.wall_clock_sec for report in reports)
    for report in reports:
        run.write_json(f"reports/{report.model_id}.json", report.to_dict())
        run.write_text(f"reports/{report.model_id}.txt", report.to_text())


def cmd_select(run: _Run) -> None:
    train, _ = _load_train(run)
    with unexpected_as(TrainingError):  # as train_models wraps the same pass
        result = select_attributes(train, run.config.selection_params())
    _write_selection(run, result)
    run.write_json("kept.json", {
        "format": "kept-attributes/1",
        "kept": list(result.weights.kept_names()),
    })
    print(result.to_text(), end="")


def _write_models(run: _Run, models: dict) -> None:
    for mid, model in models.items():
        doc = model.to_dict()
        run.write_json(f"models/{mid}.json", doc)
        if hasattr(model, "dump"):
            run.write_text(f"trees/{mid}.txt", model.dump())


def cmd_train(run: _Run) -> None:
    train, _ = _load_train(run)
    selection, models = train_models(train, run.config.comparison_config(), run.info["stage_s"])
    run.info["nbtree"] = models["proposed-nbtree"].build_stats
    _write_selection(run, selection)
    _write_models(run, models)
    print(f"trained {len(models)} model(s) into {run.dir}")


def cmd_eval(run: _Run) -> None:
    config = run.config
    if not config.models:
        raise ConfigError("eval needs at least one --models path")
    if not config.test:
        raise ConfigError("--test is required for eval")
    models = [load_model_file(_resolve_path(path)) for path in config.models]
    for i, model in enumerate(models):
        if model.model_id in [m.model_id for m in models[:i]]:
            raise ConfigError(f"two models have model_id {model.model_id!r}")
    schema, taxonomy = _schema_and_taxonomy(config)

    def score(batches):  # in each range's process
        try:
            return evaluate_batches(models, batches)
        except EvaluationError as exc:  # raised once the whole file is read
            return exc

    load = LoadReport()
    reports, *parts = map_batches(_resolve_path(config.test), schema, taxonomy, load, score,
                                  permissive=config.permissive, rows=_EVAL_BATCH_ROWS)
    for part in (reports, *parts):  # a bad record has failed before any model does
        if isinstance(part, EvaluationError):
            raise part
    for part in parts:
        for report, more in zip(reports, part):
            report.add(more)
    run.info["loads"].append(_load_entry(reports[0].dataset_id, load))
    # the test labels, class by class: a report's rows count them in schema order
    labels = np.repeat(np.arange(schema.n_classes), reports[0].matrix.row_sums())
    counts = ClassCounts(schema.class_names, reports[0].matrix.row_sums(), np.bincount(
        labels, weights=np.full(len(labels), 1.0 / len(labels)), minlength=schema.n_classes))
    run.write_json("composition.json", _composition_doc(reports[0].dataset_id, counts, load))
    for report in reports:
        print(report.to_text())
    _write_reports(run, reports)
    run.write_json("bundle.json", {
        "format": "eval-bundle/1",
        "reports": [r.to_dict() for r in reports],
    })


def cmd_compare(run: _Run) -> None:
    train, test = _train_test(run)
    run.write_json("composition.json",
                   _composition_doc(train.dataset_id, class_counts(train), train.load_report))
    bundle = run_comparison(train, test, run.config.comparison_config(), run.info["stage_s"])
    run.info["nbtree"] = bundle.models["proposed-nbtree"].build_stats
    _write_selection(run, bundle.selection)
    _write_models(run, bundle.models)
    _write_reports(run, bundle.reports)
    run.write_json("bundle.json", bundle.to_dict())
    print(bundle.to_text())
    print(f"artifacts in {run.dir}")


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per ``RunConfig`` field. An unset flag is
    None, so it overrides no config-file value."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    field_types = _field_types()
    for f in dataclasses.fields(RunConfig):
        kind = field_types[f.name][0]
        how = ({"action": argparse.BooleanOptionalAction} if kind is bool
               else {"type": str, "nargs": "+"} if kind == list[str] else {"type": kind})
        p.add_argument(f"--{f.name.replace('_', '-')}", help=f.metadata.get("help"), **how)


# each command's handler, which fills the run that main then saves, and its
# help line
_COMMANDS = {
    "inspect": (cmd_inspect, "per-class composition of a dataset"),
    "select": (cmd_select, "run attribute weighting and report kept attributes"),
    "train": (cmd_train, "train the proposed model and any baselines"),
    "eval": (cmd_eval, "evaluate saved models on a test set"),
    "compare": (cmd_compare, "select, train and evaluate in one run"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="nbtree-ids",
                     description="Attribute weighting + NB-tree intrusion detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=doc))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, _ = _COMMANDS[args.command]
        run = _Run(_load_config(args))
        handler(run)
        run.info["peak_rss_mb"] = _peak_rss_mb()
        run.save()
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
