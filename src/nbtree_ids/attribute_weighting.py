"""Posterior-driven attribute weighting.

The full procedure: initialise example weights to 1/n, fit a naive-Bayes
model, replace each example's weight with its highest normalised posterior
and its label with the argmax class, grow a decision tree by weighted
information gain on the updated data, then weight each attribute
1/sqrt(d) where d is the smallest depth at which the tree tests it
(absent attributes get 0) and drop the zero-weight attributes.

The tree here exists to rank attributes; it is also usable directly as a
plain information-gain classifier, which is the tree baseline elsewhere in
the toolkit (with uniform example weights it is an ordinary ID3-style
tree: multi-way splits on discrete attributes, binary threshold splits on
continuous ones). Its node type, routing, dump and JSON codec live in
``tree``, shared with the NB-tree; ``DecisionTree`` adds the label leaves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Schema, WeightedDataset, project_attributes
from .exceptions import DataFormatError, DegenerateTreeError, SchemaError, TrainingError
from .probability import (
    BINS, SMOOTHING_K, NaiveBayesModel, check_fit_settings, column_ranks, fit_naive_bayes,
    subset_ranks,
)
from .tree import (
    TreeModel, TreeNode, cut_masses, grow_tree, iter_nodes, split_entropy, threshold_candidates,
)

_GAIN_TOL = 1e-12       # below this a split is considered useless


# -- information gain ---------------------------------------------------------


def _gain(dataset: WeightedDataset, j: int, rows: np.ndarray | slice, labels: np.ndarray,
          weights: np.ndarray, node: tuple[float, float] | None = None,
          ) -> tuple[float, float | None]:
    """(gain, threshold) of attribute j over ``rows``, whose labels and
    weights are given; the threshold is None for a discrete attribute.
    ``node`` is the rows' own ``split_entropy`` (one part) and mass, found
    here when not given. The gain is that entropy less the least an
    attribute's split leaves, over the mass: a discrete attribute has one
    split, one part per symbol; a continuous one a split per
    ``threshold_candidates`` cut, of which the lowest least-entropy one is
    kept. A continuous column's ranks over the rows come from its one sort."""
    spec, C = dataset.schema.attributes[j], dataset.schema.n_classes
    if node is None:
        class_mass = np.bincount(labels, weights=weights, minlength=C)
        node = float(split_entropy(class_mass[None])), float(class_mass.sum())
    if spec.is_discrete:
        parts = np.bincount(dataset.columns[j][rows].astype(np.int64) * C + labels,
                            weights=weights, minlength=len(spec.domain) * C)
        h, threshold = float(split_entropy(parts.reshape(-1, C))), None
    else:
        distinct, rank = subset_ranks(*column_ranks(dataset, j), rows)
        thresholds = threshold_candidates(distinct, rank, weights)
        if thresholds.size == 0:
            return 0.0, None
        cut_h = split_entropy(cut_masses(distinct, rank, labels, weights, thresholds, C))
        best = int(np.argmin(cut_h))
        h, threshold = float(cut_h[best]), float(thresholds[best])
    own_h, mass = node
    return (own_h - h) / mass, threshold


# -- decision tree ------------------------------------------------------------


@dataclass
class DecisionTree(TreeModel):
    """Weighted information-gain tree bound to a schema; its leaves hold
    class labels."""

    FORMAT = "gain-tree/1"

    schema_hash: str
    classes: tuple[str, ...]
    attribute_names: tuple[str, ...]
    root: TreeNode
    model_id: str = "gain-tree"

    def predict_dataset(self, dataset: WeightedDataset) -> np.ndarray:
        class_index = {c: i for i, c in enumerate(self.classes)}
        return self.route_predict(dataset, lambda label, rows: class_index[label])

    @staticmethod
    def check_payload(payload, classes: tuple[str, ...], attributes: tuple[str, ...],
                      schema_hash: str) -> str:
        if payload not in classes:
            raise DataFormatError(f"leaf label {payload!r} is not one of the tree's classes")
        return payload


def build_weighted_tree(
    dataset: WeightedDataset,
    max_depth: int | None = None,
    min_leaf_examples: float = 2.0,
) -> DecisionTree:
    """Grow the weighted information-gain tree through ``tree.grow_tree``.

    Greedy on the max-gain attribute (ties break by schema order). A node
    becomes a leaf when it is pure, when no attribute gives positive gain,
    at ``max_depth``, or when its weight mass drops below the mass of
    ``min_leaf_examples`` average examples (negative or nan raises
    ``ValueError``). A discrete attribute tested above a node has
    one symbol there and so no gain; continuous attributes may recur with
    different thresholds.
    """
    if dataset.n == 0:
        raise TrainingError("cannot build a tree from an empty dataset")
    schema = dataset.schema
    C = schema.n_classes
    _check_leaf_floor(min_leaf_examples)
    min_weight_leaf = min_leaf_examples * dataset.total_weight / dataset.n

    def split_of(node: TreeNode, rows: np.ndarray, _path: str):
        lab = dataset.labels[rows]
        w = dataset.weights[rows]
        cw = np.bincount(lab, weights=w, minlength=C)
        node.weight = float(cw.sum())
        pure = np.count_nonzero(cw > 0) <= 1
        depth_stop = max_depth is not None and node.depth >= max_depth
        best_gain, best = 0.0, None
        if not (pure or depth_stop or node.weight < min_weight_leaf):
            own = float(split_entropy(cw[None])), node.weight
            for j in range(schema.n_attributes):
                gain, thr = _gain(dataset, j, rows, lab, w, own)
                if gain > best_gain + _GAIN_TOL:
                    best_gain, best = gain, (j, thr, None)
        if best is None:
            node.payload = schema.class_names[int(np.argmax(cw))]
        return best

    root = grow_tree(dataset, split_of)
    return DecisionTree(
        schema.structural_hash(), schema.class_names, schema.attribute_names, root,
    )


def _check_leaf_floor(min_leaf_examples: float) -> None:
    """Negative or nan raises ``ValueError``."""
    if not min_leaf_examples >= 0:
        raise ValueError(f"min_leaf_examples must be >= 0, got {min_leaf_examples!r}")


# -- attribute weights --------------------------------------------------------


@dataclass(frozen=True)
class AttributeWeights:
    """Per-attribute weights: 1/sqrt(min test depth), 0 when untested."""

    names: tuple[str, ...]
    weights: tuple[float, ...]
    min_depths: tuple[int | None, ...]

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.names, self.weights))

    def as_array(self, names) -> np.ndarray:
        mapping = self.as_mapping()
        try:
            return np.array([mapping[n] for n in names], dtype=np.float64)
        except KeyError as exc:
            raise SchemaError(f"no weight for attribute {exc.args[0]!r}") from None

    def kept_names(self) -> tuple[str, ...]:
        return tuple(n for n, w in zip(self.names, self.weights) if w > 0)

    def rows(self) -> list[dict]:
        return [
            {"name": n, "min_depth": d, "weight": w, "kept": w > 0}
            for n, w, d in zip(self.names, self.weights, self.min_depths)
        ]


def compute_attribute_weights(tree: DecisionTree, schema: Schema) -> AttributeWeights:
    """Derive 1/sqrt(d) weights from the minimum depth at which the tree
    tests each attribute; attributes absent from the tree weigh 0."""
    min_depth: dict[str, int] = {}
    for node in iter_nodes(tree.root):
        if not node.is_leaf:
            d = min_depth.get(node.attribute)
            if d is None or node.depth < d:
                min_depth[node.attribute] = node.depth
    names = schema.attribute_names
    depths = tuple(min_depth.get(n) for n in names)
    weights = tuple(0.0 if d is None else 1.0 / math.sqrt(d) for d in depths)
    return AttributeWeights(names, weights, depths)


# -- the full weighting procedure ---------------------------------------------


def update_example_weights(
    dataset: WeightedDataset,
    model: NaiveBayesModel,
) -> WeightedDataset:
    """Set each example's weight to its highest normalised posterior and
    its label to the argmax class. The result is the weighting pass's
    working copy; ``dataset`` keeps its own labels.
    """
    post = model.posteriors_dataset(dataset)
    return dataset.with_weights(post.max(axis=1)).with_labels(np.argmax(post, axis=1))


@dataclass(frozen=True)
class SelectionParams:
    """Knobs for the attribute-weighting pass, checked when built (so frozen)."""

    smoothing_k: float = SMOOTHING_K
    bins: int = BINS
    max_depth: int | None = 15
    min_leaf_examples: float = 30.0

    def __post_init__(self) -> None:
        check_fit_settings(self.smoothing_k, self.bins)
        _check_leaf_floor(self.min_leaf_examples)
        if self.max_depth is not None and not self.max_depth >= 1:
            raise ValueError(f"weighting-tree max_depth must be >= 1, got {self.max_depth!r}")


@dataclass
class SelectionResult:
    """One attribute-weighting run: its weights, the reduced dataset and
    the weighting tree. Its audit record reads them."""

    weights: AttributeWeights
    reduced: WeightedDataset
    tree: DecisionTree
    n_examples: int
    relabeled_count: int
    # counters and seconds of the run that made this result; not saved
    stats: dict | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "format": "attribute-weights/1",
            "n_examples": self.n_examples,
            "relabeled_count": self.relabeled_count,
            "attributes": self.weights.rows(),
            "kept": list(self.weights.kept_names()),
        }

    def to_text(self) -> str:
        rows = self.weights.rows()
        width = max(len(r["name"]) for r in rows)
        lines = [f"{'attribute':<{width}}  min_depth  weight      kept"]
        for r in rows:
            d = "-" if r["min_depth"] is None else str(r["min_depth"])
            lines.append(
                f"{r['name']:<{width}}  {d:>9}  {r['weight']:<10.6f}  {'yes' if r['kept'] else 'no'}"
            )
        lines.append(f"kept {len(self.weights.kept_names())} of {len(rows)} attributes")
        return "\n".join(lines) + "\n"


def select_attributes(
    dataset: WeightedDataset,
    params: SelectionParams | None = None,
) -> SelectionResult:
    """Run the whole weighting procedure and drop zero-weight attributes.

    One naive-Bayes fit on uniform weights reweights and relabels a
    working copy, whose labels the weighting tree reads;
    ``relabeled_count`` counts the rows where they differ from
    ``dataset``'s. The returned reduced dataset carries the posterior
    weights and ``dataset``'s own labels.
    """
    params = params or SelectionParams()
    if dataset.n == 0:
        raise TrainingError("cannot select attributes on an empty dataset")
    start = time.perf_counter()
    model = fit_naive_bayes(dataset.with_uniform_weights(), k=params.smoothing_k,
                            bins=params.bins)
    work = update_example_weights(dataset, model)
    tree = build_weighted_tree(
        work, max_depth=params.max_depth, min_leaf_examples=params.min_leaf_examples
    )
    weights = compute_attribute_weights(tree, dataset.schema)
    kept = weights.kept_names()
    if not kept:
        raise DegenerateTreeError(
            "the weighting tree is a single leaf, so every attribute would be "
            "dropped; lower min_leaf_examples, raise max_depth, or check that "
            "the data is not single-class"
        )
    reduced = project_attributes(dataset.with_weights(work.weights), kept)
    relabeled = int(np.count_nonzero(work.labels != dataset.labels))
    stats = {"relabeled": relabeled, "tree_nodes": tree.node_count(),
             "tree_depth": max(node.depth for node in iter_nodes(tree.root)), "kept": len(kept),
             "select_s": time.perf_counter() - start}
    return SelectionResult(weights, reduced, tree, dataset.n, relabeled, stats)
