"""Adaptive naive-Bayes tree.

A hybrid classifier: internal nodes split like a decision tree (multi-way
on discrete attributes, binary threshold on continuous ones) and every
leaf holds a naive-Bayes model fitted on exactly the examples routed to
it, classified with the attribute-weight exponents from the weighting
pass. A node stays a leaf when its own NB model already classifies the
node's examples perfectly, or when no candidate split is significantly
better than not splitting; that model, fitted once per node, becomes the
leaf (or the fallback of a split node's empty branches).

Split utility follows the classic NBTree protocol: the utility of a split
is the weighted average, over the child partitions it induces, of
stratified cross-validated NB accuracy inside each child; a split is
accepted only if it cuts the node's cross-validated error by more than
``significance`` (relative) and the node carries at least
``min_split_examples`` examples' worth of weight. Cross-validation folds
are assigned by a deterministic hash of (example row, node path), so
builds are exactly reproducible.

Continuous attributes are re-binned (``probability.bin_columns``) on each
node's partition and on each candidate child's partition, and the add-k
smoothing strength k is counted in units of the NB-tree training set's
mean example weight, for the split search and the leaves alike. Each node
fits its model with ``probability.fit_codes``, the baselines' fit. So the
perfect-classification check and the split utility see exactly what the
corresponding leaf model would see: a split is scored by the leaf models
it would create. An attribute that would give a node one child scores the
node's own accuracy, so it never wins.

The node type, routing, dump and JSON codec live in ``tree``, shared with
the gain tree; ``NBTree`` adds the naive-Bayes leaves and their scoring.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Example, WeightedDataset
from .exceptions import DataFormatError, TrainingError
from .probability import (
    NaiveBayesModel,
    as_weight_array,
    bin_columns,
    fit_codes,
    smoothed_conditionals,
    smoothed_priors,
    value_count,
    _normalise_rows,
)
from .tree import (
    TreeModel, TreeNode, grow_tree, iter_nodes, node_from_dict, node_to_dict, route_example,
    route_rows, split_rows, threshold_candidates,
)

NBTREE_FORMAT = "nbtree/1"


@dataclass
class NBTreeParams:
    """Construction knobs."""

    folds: int = 5
    significance: float = 0.05        # required relative error reduction
    min_split_examples: float = 30.0  # node weight floor, in example-mass units
    max_depth: int = 10
    smoothing_k: float = 1.0          # add-k, in units of the training set's mean example weight
    bins: int = 10

    def validate(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 <= self.significance < 1.0):
            raise ValueError("significance must be in [0, 1)")


@dataclass(frozen=True)
class SplitUtility:
    """Estimated post-split accuracy for one attribute."""

    attribute: str
    utility: float
    threshold: float | None = None


# -- deterministic fold assignment --------------------------------------------


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _path_salt(path: str) -> np.uint64:
    return np.uint64(zlib.crc32(path.encode()))


def _fold_assign(labels: np.ndarray, keys: np.ndarray, folds: int) -> np.ndarray:
    """Round-robin folds within each class, ordered by hash key: stratified
    and a pure function of (row identity, node path)."""
    fold = np.empty(len(keys), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        order = np.argsort(keys[idx])  # keys are distinct: any sort is stable
        fold[idx[order]] = np.arange(len(idx)) % folds
    return fold


# -- encoded view used during construction -------------------------------------


class _NodeView(NamedTuple):
    """One node's or candidate child's partition, encoded with bins fitted
    on the partition itself (discrete codes are global; continuous columns
    are re-binned so the partition sees exactly what its own leaf model
    would see)."""

    rows: np.ndarray      # global row ids (fold hashing key)
    codes: np.ndarray     # (m, A), column-major: the CV reads one attribute at a time
    edges: list           # per attribute; empty for discrete ones
    labels: np.ndarray
    weights: np.ndarray


class _BuildContext:
    """Training data plus the knobs shared by every node evaluation (all-ones
    attribute weights and ``NBTreeParams()`` by default); no per-node state."""

    def __init__(self, ds: WeightedDataset, attr_weights=None, params: NBTreeParams | None = None):
        params = params or NBTreeParams()
        params.validate()
        self.params = params
        self.schema = ds.schema
        self.labels = ds.labels
        self.weights = ds.weights
        self.attr_w = (np.ones(ds.schema.n_attributes) if attr_weights is None
                       else as_weight_array(attr_weights, ds.schema.attribute_names))
        self.example_mass = ds.total_weight / ds.n
        # smoothing in example-mass units, like fit_naive_bayes, but of the
        # whole training set for every node
        self.k = params.smoothing_k * self.example_mass
        self.raw = ds.columns

    def node_view(self, rows: np.ndarray) -> _NodeView:
        codes, edges = bin_columns(self.schema, [col[rows] for col in self.raw], self.params.bins)
        codes = np.array(codes, dtype=np.int64).reshape(len(codes), len(rows)).T  # A may be 0
        return _NodeView(rows, codes, edges, self.labels[rows], self.weights[rows])

    def misclassified(self, view: _NodeView, model: NaiveBayesModel) -> int:
        """Examples of the view that ``model`` (its node model) gets wrong
        under the tree's attribute weights."""
        pred = np.argmax(model.log_scores(view.codes, self.attr_w), axis=1)
        return int(np.count_nonzero(pred != view.labels))

    def cv_accuracy(self, view: _NodeView, salt: np.uint64) -> float:
        """Stratified k-fold cross-validated, weight-averaged NB accuracy;
        folds keyed by (global row id, salt)."""
        m = len(view.rows)
        if m == 0:
            return 0.0
        lab, w = view.labels, view.weights
        keys = _mix64(view.rows.astype(np.uint64) ^ salt)
        F, C, k = self.params.folds, self.schema.n_classes, self.k
        f = _fold_assign(lab, keys, F)
        cw_fold = np.bincount(f * C + lab, weights=w, minlength=F * C).reshape(F, C)
        cw_train = cw_fold.sum(axis=0)[None, :] - cw_fold
        with np.errstate(divide="ignore"):
            scores = np.log(smoothed_priors(cw_train, cw_train.sum(axis=-1, keepdims=True), k))[f]
        fc = f * C + lab
        for j, wa in enumerate(self.attr_w):
            if wa == 0.0:
                continue
            V = value_count(self.schema.attributes[j], view.edges[j])
            code = view.codes[:, j]
            cnt = np.bincount(fc * V + code, weights=w, minlength=F * C * V)
            cnt = cnt.reshape(F, C, V)
            train_cnt = cnt.sum(axis=0)[None, :, :] - cnt
            with np.errstate(divide="ignore"):
                logc = np.log(smoothed_conditionals(train_cnt, cw_train, k))
            # row i reads logc[f[i], :, code[i]] from the (F*V, C) transpose
            table = logc.transpose(0, 2, 1).reshape(F * V, C)
            scores += wa * np.take(table, f * V + code, axis=0)
        pred = np.argmax(scores, axis=1)
        total = w.sum()
        return float(min(1.0, max(0.0, (w * (pred == lab)).sum() / total)))

    def split_utility_value(self, view: _NodeView, j: int, salt: np.uint64,
                            node_accuracy: float) -> tuple[float, float | None]:
        """Best utility for attribute j (searching thresholds when
        continuous). Children lighter than one example's mass fall back to
        the node's own accuracy, and so does an attribute that would give
        the node one child: a discrete one with a single symbol there, or
        a constant continuous one."""
        spec = self.schema.attributes[j]
        if spec.is_discrete:
            code = view.codes[:, j]
            if code.min() == code.max():
                return node_accuracy, None
            candidates = [None]
        else:
            thr = threshold_candidates(self.raw[j][view.rows], view.weights)
            if thr.size == 0:
                return node_accuracy, None
            candidates = list(thr)
        total = float(view.weights.sum())
        best_u, best_t = -1.0, None
        for t in candidates:
            keys = spec.domain if t is None else ("le", "gt")
            u = 0.0
            for key, rows in zip(keys, split_rows(self.raw[j], view.rows, t, spec.domain)):
                wch = float(self.weights[rows].sum())
                if wch <= 0:
                    continue
                if wch < self.example_mass:
                    acc = node_accuracy
                else:
                    child = self.node_view(rows)
                    acc = self.cv_accuracy(child, salt ^ _path_salt(f"{j}:{key}:{t}"))
                u += (wch / total) * acc
            u = min(1.0, max(0.0, u))
            if u > best_u:
                best_u, best_t = u, t
        return best_u, (None if best_t is None else float(best_t))

    def best_split(self, view: _NodeView, salt: np.uint64) -> SplitUtility | None:
        node_weight = float(view.weights.sum())
        if node_weight < self.params.min_split_examples * self.example_mass:
            return None
        node_acc = self.cv_accuracy(view, salt)
        node_err = 1.0 - node_acc
        if node_err <= 0:
            return None
        best: SplitUtility | None = None
        for j, spec in enumerate(self.schema.attributes):
            u, t = self.split_utility_value(view, j, salt, node_acc)
            if best is None or u > best.utility:
                best = SplitUtility(spec.name, u, t)
        if best is None:
            return None
        reduction = (node_err - (1.0 - best.utility)) / node_err
        if reduction <= self.params.significance:
            return None
        return best

    def split_of(self, node: TreeNode, rows: np.ndarray, path: str):
        """The NB-tree's node decision for ``tree.grow_tree``: the node's
        own model is its leaf, or the fallback of its empty branches."""
        node.weight = float(self.weights[rows].sum())
        view = self.node_view(rows)
        model = fit_codes(self.schema, view.codes.T, view.edges, view.labels, view.weights, self.k)
        found = None
        if node.depth < self.params.max_depth and self.misclassified(view, model) > 0:
            found = self.best_split(view, _path_salt(path))
        if found is None:
            node.payload = model
            return None
        return self.schema.attribute_index(found.attribute), found.threshold, model


# -- public node-level operations ----------------------------------------------


def node_misclassification_check(
    partition: WeightedDataset,
    attr_weights,
    k: float = 1.0,
    bins: int = 10,
) -> int:
    """Fit an NB model on the partition, classify the partition with the
    attribute-weight exponents, and count the examples whose prediction
    differs from their label. Zero means the caller should keep this node
    as a leaf without evaluating any split."""
    if partition.n == 0:
        raise TrainingError("empty partition")
    ctx = _BuildContext(partition, attr_weights,
                        NBTreeParams(smoothing_k=k, bins=bins))
    view = ctx.node_view(np.arange(partition.n))
    model = fit_codes(ctx.schema, view.codes.T, view.edges, view.labels, view.weights, ctx.k)
    return ctx.misclassified(view, model)


def split_utility(
    partition: WeightedDataset,
    attribute: str,
    attr_weights=None,
    params: NBTreeParams | None = None,
) -> SplitUtility:
    """Utility of splitting the partition on one attribute: the weighted
    average over the induced children of cross-validated NB accuracy.
    ``attr_weights`` defaults to all ones."""
    ctx = _BuildContext(partition, attr_weights, params)
    j = partition.schema.attribute_index(attribute)
    view = ctx.node_view(np.arange(partition.n))
    salt = _path_salt("root")
    node_acc = ctx.cv_accuracy(view, salt)
    u, t = ctx.split_utility_value(view, j, salt, node_acc)
    return SplitUtility(attribute, u, t)


def best_split(
    partition: WeightedDataset,
    attr_weights=None,
    params: NBTreeParams | None = None,
) -> SplitUtility | None:
    """Highest-utility split, or None when no split passes the significance
    test (better relative error reduction than ``significance`` on a node
    carrying at least ``min_split_examples`` examples' weight)."""
    ctx = _BuildContext(partition, attr_weights, params)
    view = ctx.node_view(np.arange(partition.n))
    return ctx.best_split(view, _path_salt("root"))


# -- the tree -------------------------------------------------------------------


@dataclass
class NBTree(TreeModel):
    """A built naive-Bayes tree plus the attribute weights its leaves use."""

    schema_hash: str
    classes: tuple[str, ...]
    attribute_names: tuple[str, ...]
    attr_weights: np.ndarray
    root: TreeNode
    model_id: str = "nbtree"

    def predict_dataset(self, dataset: WeightedDataset) -> np.ndarray:
        self.check_schema(dataset)
        out = np.empty(dataset.n, dtype=np.int64)
        for model, rows in route_rows(self.root, dataset):
            scores = model.log_scores(model.encode_dataset(dataset.take(rows)), self.attr_weights)
            out[rows] = np.argmax(scores, axis=1)
        return out

    def leaf_sizes(self) -> list[int]:
        return [node.n for node in iter_nodes(self.root) if node.is_leaf]

    def to_dict(self) -> dict:
        return {
            "format": NBTREE_FORMAT,
            "model_id": self.model_id,
            "schema_hash": self.schema_hash,
            "classes": list(self.classes),
            "attributes": list(self.attribute_names),
            "attr_weights": [float(w) for w in self.attr_weights],
            "root": node_to_dict(self.root),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NBTree":
        if doc.get("format") != NBTREE_FORMAT:
            raise DataFormatError(f"not a {NBTREE_FORMAT} document")
        attributes = tuple(doc["attributes"])
        attr_weights = np.asarray(doc["attr_weights"], dtype=np.float64)
        if attr_weights.shape != (len(attributes),):
            raise DataFormatError("attr_weights do not cover the tree's attributes")
        return cls(
            doc["schema_hash"], tuple(doc["classes"]), attributes, attr_weights,
            node_from_dict(doc["root"], attributes), doc.get("model_id", "nbtree"),
        )


def build_nbtree(
    train: WeightedDataset,
    attr_weights=None,
    params: NBTreeParams | None = None,
) -> NBTree:
    """Grow the tree through ``tree.grow_tree``, which also owns the rule
    that partitions a node's rows by a split.

    Each node first checks whether its own NB model classifies the node's
    examples perfectly; if so (or at max depth, or when no split passes
    the significance test) the node becomes an NB leaf. Otherwise the data
    is partitioned on the best-utility attribute and each child is grown
    the same way. Discrete splits branch on every domain value; values
    with no examples become fallback leaves that reuse the parent's model.
    Each node fits its NB model once, with the build's k, and that model
    is the one the check scored. The tree learns from ``train`` as given:
    its example weights and its working labels.
    """
    if train.n == 0:
        raise TrainingError("cannot build a tree from an empty dataset")
    ctx = _BuildContext(train, attr_weights, params)
    schema = train.schema
    root = grow_tree(train, ctx.split_of)
    return NBTree(
        schema.structural_hash(), schema.class_names, schema.attribute_names,
        ctx.attr_w, root,
    )


def classify_nbtree(tree: NBTree, example: Example) -> tuple[str, np.ndarray]:
    """Route one example to its leaf and classify with the leaf model under
    the tree's attribute weights. Returns (label, normalised per-class
    probabilities)."""
    model = route_example(tree.root, dict(zip(tree.attribute_names, example.values)))
    scores = model.log_scores(model.encode_example(example)[None, :], tree.attr_weights)
    return tree.classes[int(np.argmax(scores[0]))], _normalise_rows(scores)[0]
