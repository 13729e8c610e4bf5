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
``min_split_examples`` examples' worth of weight. A continuous attribute
is cross-validated only at its best cuts (``tree.best_cuts``): the
``tree._BEST_CUTS`` of its capped threshold candidates that leave the
least class entropy at the node (``tree.split_entropy``, the one
criterion by which the gain tree picks every split, as C4.5 picks a
cut). Of equal utilities the lowest cut wins. Cross-validation folds
are assigned by a deterministic hash of (example row, node path), so
builds are exactly reproducible.

Continuous attributes are re-binned on each node's partition and on each
candidate child's partition by ``probability.rank_codes``, the baselines'
binning, and the add-k smoothing strength k is counted in units of the
NB-tree training set's mean example weight, for the split search and the
leaves alike. Each node fits its model with ``probability.fit_codes``,
the baselines' fit. So the perfect-classification check and the split
utility see exactly what the corresponding leaf model would see: a split
is scored by the leaf models it would create. An attribute that would
give a node one child has no candidate split: it would score the node's
own accuracy, which never passes the significance test.

The search never sorts at a node and never re-encodes a candidate
child. Each continuous column of the training set is sorted once
(``probability.column_ranks``, shared with the weighting pass and the
baselines), and each node reads the distinct values its rows hold and
their ranks from that sort (``probability.subset_ranks``). Its threshold
candidates, their class masses (one ``bincount`` over (rank, class),
``tree.cut_masses``), its own bins and each child's are read from
histograms of those ranks, the bins exactly as the child's own column
would give them. Each child is then cross-validated on its own
(``_BuildContext.cv_accuracy``): one ``bincount`` per attribute over
(fold, class, code), its rows in node order, so each utility is bit for
bit the one of the per-child reference in ``tests/oracles.py``, which
re-encodes every child. Folds stay salted
per child, by split attribute, branch and threshold: inheriting the
node's folds would be cheaper, but it would change which rows each child
trains on, and so the trees.

A node's search is one ``dataset.fork_map`` call over its units, one
attribute and one of its candidate splits each (a discrete attribute's
split, or one of a continuous one's best cuts). Below ``_SEARCH_ROWS``
rows the call has one item, which runs in this process and forks nothing;
a larger node's units are dealt in turn to one process per usable CPU.
Each process splits the node's rows for one unit at a time,
cross-validates the children, and sends back each unit's utility and how
many children it cross-validated. This process then picks the winner in
schema order and adds up the counts. A utility is a pure function of the
node's rows and its salt, so the tree and its counters do not depend on
the number of processes; ``build_stats["processes"]`` gives the most
that one search used.

The node type, routing, dump and JSON codec live in ``tree``, shared with
the gain tree; ``NBTree`` adds the naive-Bayes leaves and their scoring.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dataset as _dataset
from .dataset import Example, WeightedDataset
from .exceptions import DataFormatError, TrainingError
from .probability import (
    BINS,
    SMOOTHING_K,
    NaiveBayesModel,
    as_weight_array,
    bin_ranks,
    check_fit_settings,
    column_ranks,
    fit_codes,
    rank_codes,
    smoothed_conditionals,
    smoothed_priors,
    subset_ranks,
    _normalise_rows,
)
from .tree import TreeModel, TreeNode, best_cuts, grow_tree, iter_nodes, route_example, split_rows

# a child's cross-validation tables hold folds x classes x codes cells, and
# past 100 folds a fold holds under 1% of a node's rows
_MAX_FOLDS = 100
# a node of fewer rows is searched in this process alone: forked, the
# searches of train-small's 459- and 485-row nodes took 0.024-0.025 s against
# 0.019-0.021 s, and of its 5,806- and 6,026-row nodes 0.033 s against
# 0.038-0.039 s (medians of 40 alternating searches, 2 vCPUs)
_SEARCH_ROWS = 2000


@dataclass(frozen=True)
class NBTreeParams:
    """Construction knobs, checked when built (so frozen)."""

    folds: int = 5
    significance: float = 0.05        # required relative error reduction
    min_split_examples: float = 30.0  # node weight floor, in example-mass units
    max_depth: int = 10
    smoothing_k: float = SMOOTHING_K  # add-k, in units of the training set's mean example weight
    bins: int = BINS

    def __post_init__(self) -> None:
        check_fit_settings(self.smoothing_k, self.bins)
        for name, ok, bound in (("folds", 2 <= self.folds <= _MAX_FOLDS,
                                 f"in [2, {_MAX_FOLDS}]"),
                                ("significance", 0.0 <= self.significance < 1.0, "in [0, 1)"),
                                ("min_split_examples", self.min_split_examples >= 0, ">= 0"),
                                ("max_depth", self.max_depth >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"NB-tree {name} must be {bound}, got {getattr(self, name)!r}")


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
    and a pure function of (row identity, node path). Keys are distinct."""
    order = np.argsort(keys)
    # a stable sort of 8- or 16-bit class ids is a radix sort
    small = labels.astype(np.min_scalar_type(int(labels.max(initial=0))))
    order = order[np.argsort(small[order], kind="stable")]
    g = labels[order]
    sizes = np.bincount(g)
    first = (np.cumsum(sizes) - sizes)[g]
    fold = np.empty(len(keys), dtype=np.int64)
    fold[order] = (np.arange(len(g)) - first) % folds
    return fold


# -- encoded view used during construction -------------------------------------


class _NodeView(NamedTuple):
    """One node's partition, encoded with bins fitted on the partition
    itself (discrete codes are global), so the node sees exactly what its
    own leaf model sees. Candidate children are not re-encoded: their bins
    come from the node's ranks (``probability.rank_codes``)."""

    rows: np.ndarray      # global row ids (fold hashing key)
    codes: list           # one code column per attribute
    edges: list           # per attribute; empty for discrete ones
    ranks: list           # per attribute: (distinct values, intp row ranks); None if discrete
    labels: np.ndarray
    weights: np.ndarray


class _BuildContext:
    """Training data plus the knobs shared by every node evaluation (all-ones
    attribute weights and ``NBTreeParams()`` by default), and the build's
    counters; no per-node state."""

    def __init__(self, ds: WeightedDataset, attr_weights=None, params: NBTreeParams | None = None):
        self.params = params = params or NBTreeParams()
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
        # each continuous column's one sort, its ranks narrow (see rank_column)
        self.ranks = [None if spec.is_discrete else column_ranks(ds, j)
                      for j, spec in enumerate(ds.schema.attributes)]
        # counters, and the most processes one split search used
        self.stats = dict.fromkeys(
            ("nodes", "split_searches", "children_scored", "cross_validations"), 0)
        self.stats["processes"] = 1

    def node_view(self, rows: np.ndarray) -> _NodeView:
        codes, edges, ranks = [], [], []
        for col, col_ranks in zip(self.raw, self.ranks):
            if col_ranks is None:
                rank, code, attr_edges = None, col[rows], np.empty(0)
            else:
                rank = subset_ranks(*col_ranks, rows)
                code, attr_edges = bin_ranks(*rank, self.params.bins)
            codes.append(code)
            edges.append(attr_edges)
            ranks.append(rank)
        return _NodeView(rows, codes, edges, ranks, self.labels[rows], self.weights[rows])

    def misclassified(self, view: _NodeView, model: NaiveBayesModel) -> int:
        """Examples of the view that ``model`` (its node model) gets wrong
        under the tree's attribute weights."""
        pred = np.argmax(model.log_scores(view.codes, self.attr_w, n=len(view.rows)), axis=1)
        return int(np.count_nonzero(pred != view.labels))

    def cv_accuracy(self, view: _NodeView, pos: np.ndarray, salt: np.uint64) -> float:
        """Stratified k-fold cross-validated, weight-averaged NB accuracy of
        the view's rows at ``pos`` (in node order), with bins fitted on
        those rows and folds keyed by (global row id, ``salt``). It calls
        no BLAS (``bincount``, ``take`` and ``log`` only), so a forked
        search process may run it."""
        F, C, k = self.params.folds, self.schema.n_classes, self.k
        lab, w = view.labels[pos], view.weights[pos]
        f = _fold_assign(lab, _mix64(view.rows[pos].astype(np.uint64) ^ salt), F)
        cell = f * C + lab
        cw_fold = np.bincount(cell, weights=w, minlength=F * C).reshape(F, C)
        cw_train = cw_fold.sum(axis=0) - cw_fold
        with np.errstate(divide="ignore"):
            log_priors = np.log(smoothed_priors(cw_train, cw_train.sum(axis=-1, keepdims=True), k))
        # class-major scores: each class's column is one 1-D gather per attribute
        scores = np.take(log_priors.T, f, axis=1)
        for j, wa in enumerate(self.attr_w):
            if wa == 0.0:
                continue
            if view.ranks[j] is None:
                code, V = view.codes[j][pos], len(self.schema.attributes[j].domain)
            else:
                distinct, rank = view.ranks[j]
                code, V, _ = rank_codes(rank[pos], len(distinct), self.params.bins)
            cnt = np.bincount(cell * V + code, weights=w, minlength=F * C * V).reshape(F, C, V)
            with np.errstate(divide="ignore"):
                logc = np.log(smoothed_conditionals(cnt.sum(axis=0) - cnt, cw_train, k))
            # row i reads logc[f[i], c, code[i]] for each class c
            table = (wa * logc).transpose(1, 0, 2).reshape(C, F * V)
            at = f * V + code
            for c in range(C):
                scores[c] += table[c].take(at)
        # argmax over classes, ties to the first (no score is NaN: each is a sum
        # of finite logs or -inf); np.argmax(scores, axis=0) would copy scores
        hit = w * ((scores == scores.max(axis=0)).argmax(axis=0) == lab)
        return float(min(1.0, max(0.0, hit.sum() / w.sum())))

    def cuts(self, view: _NodeView, j: int) -> list:
        """Attribute j's candidate splits of the node: ``[None]`` for a
        discrete attribute, its ``best_cuts`` when continuous; none when
        every split would give the node one child (a discrete attribute
        with a single symbol there, or a constant continuous one)."""
        if self.schema.attributes[j].is_discrete:
            values = view.codes[j]
            return [] if values.min() == values.max() else [None]
        return list(best_cuts(*view.ranks[j], view.labels, view.weights, self.schema.n_classes))

    def cut_utility(self, view: _NodeView, j: int, t, salt: np.uint64,
                    node_accuracy: float) -> tuple[float, int]:
        """The weight-averaged cross-validated accuracy of the children that
        attribute j's split ``t`` (a ``cuts`` entry) makes of the node, and
        how many it cross-validated: a pure function of the node's rows and
        ``salt``. A child lighter than one example's mass takes the node's accuracy."""
        spec = self.schema.attributes[j]
        if t is None:
            values, keys = view.codes[j], spec.domain
        else:
            values, keys = self.raw[j][view.rows], ("le", "gt")
        total = float(view.weights.sum())
        u, scored = 0.0, 0
        for key, pos in zip(keys, split_rows(values, np.arange(len(view.rows)), t, spec.domain)):
            wch = float(view.weights[pos].sum())
            if wch <= 0:
                continue
            acc = node_accuracy
            if wch >= self.example_mass:
                scored += 1
                acc = self.cv_accuracy(view, pos, salt ^ _path_salt(f"{j}:{key}:{t}"))
            u += (wch / total) * acc
        return min(1.0, max(0.0, u)), scored

    def best_split(self, view: _NodeView, salt: np.uint64) -> SplitUtility | None:
        """The node's split, or None. Its units, one attribute's split ``t``
        of its ``cuts`` each, are scored by ``dataset.fork_map``: in one
        process for a node of fewer than ``_SEARCH_ROWS`` rows, else dealt
        to one process per usable CPU. Of n processes, process k scores
        units k, k + n, ..., one at a time, and sends back what
        ``cut_utility`` gives each. The best unit wins, ties to the first in
        schema order (an attribute's lowest cut)."""
        node_weight = float(view.weights.sum())
        if node_weight < self.params.min_split_examples * self.example_mass:
            return None
        self.stats["split_searches"] += 1
        self.stats["cross_validations"] += 1  # the node's own
        node_acc = self.cv_accuracy(view, np.arange(len(view.rows)), salt)
        node_err = 1.0 - node_acc
        if node_err <= 0:
            return None
        # an attribute with no cut would score the node's own accuracy,
        # which reduces no error, so it could never pass the test below
        units = [(j, t) for j in range(self.schema.n_attributes) for t in self.cuts(view, j)]
        if not units:
            return None
        n = min(_dataset._max_processes(), len(units)) if len(view.rows) >= _SEARCH_ROWS else 1
        self.stats["processes"] = max(self.stats["processes"], n)

        def search(k):
            return [self.cut_utility(view, j, t, salt, node_acc) for j, t in units[k::n]]

        scored = [None] * len(units)  # (utility, children cross-validated) of each unit
        for k, found in enumerate(_dataset.fork_map("NB-tree split search", n, search,
                                                    TrainingError)):
            scored[k::n] = found
        utilities, children = zip(*scored)
        self.stats["children_scored"] += sum(children)
        self.stats["cross_validations"] += sum(children)
        best = max(range(len(units)), key=utilities.__getitem__)
        j, t = units[best]
        if (node_err - (1.0 - utilities[best])) / node_err <= self.params.significance:
            return None
        return SplitUtility(self.schema.attributes[j].name, utilities[best],
                            None if t is None else float(t))

    def split_of(self, node: TreeNode, rows: np.ndarray, path: str):
        """The NB-tree's node decision for ``tree.grow_tree``: the node's
        own model is its leaf, or the fallback of its empty branches."""
        self.stats["nodes"] += 1
        node.weight = float(self.weights[rows].sum())
        view = self.node_view(rows)
        model = fit_codes(self.schema, view.codes, view.edges, view.labels, view.weights, self.k)
        found = None
        if node.depth < self.params.max_depth and self.misclassified(view, model) > 0:
            found = self.best_split(view, _path_salt(path))
        if found is None:
            node.payload = model
            return None
        return self.schema.attribute_index(found.attribute), found.threshold, model


# -- the tree -------------------------------------------------------------------


@dataclass
class NBTree(TreeModel):
    """A built naive-Bayes tree plus the attribute weights its leaves use."""

    FORMAT = "nbtree/1"

    schema_hash: str
    classes: tuple[str, ...]
    attribute_names: tuple[str, ...]
    attr_weights: np.ndarray
    root: TreeNode
    model_id: str = "nbtree"
    # counters, processes and seconds of the build that made this tree; not saved
    build_stats: dict | None = field(default=None, compare=False, repr=False)

    def predict_dataset(self, dataset: WeightedDataset) -> np.ndarray:
        def leaf_rule(model, rows):
            codes = model.encode_dataset(dataset, rows)
            return np.argmax(model.log_scores(codes, self.attr_weights, n=len(rows)), axis=1)
        return self.route_predict(dataset, leaf_rule)

    def leaf_sizes(self) -> list[int]:
        return [node.n for node in iter_nodes(self.root) if node.is_leaf]

    @staticmethod
    def check_payload(payload, classes: tuple[str, ...], attributes: tuple[str, ...],
                      schema_hash: str) -> NaiveBayesModel:
        if not (isinstance(payload, NaiveBayesModel) and payload.classes == classes
                and payload.attribute_names == attributes and payload.schema_hash == schema_hash):
            raise DataFormatError("a leaf or fallback is not a model of the tree's schema, "
                                  "classes and attributes")
        return payload

    def extra_entries(self) -> dict:
        return {"attr_weights": [float(w) for w in self.attr_weights]}

    @classmethod
    def read_extra(cls, doc: dict, attributes: tuple[str, ...]) -> dict:
        return {"attr_weights": as_weight_array(doc["attr_weights"], attributes)}


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
    its example weights and its labels.
    """
    if train.n == 0:
        raise TrainingError("cannot build a tree from an empty dataset")
    start = time.perf_counter()
    ctx = _BuildContext(train, attr_weights, params)
    schema = train.schema
    root = grow_tree(train, ctx.split_of)
    return NBTree(
        schema.structural_hash(), schema.class_names, schema.attribute_names,
        ctx.attr_w, root, build_stats=dict(ctx.stats, build_s=time.perf_counter() - start),
    )


def classify_nbtree(tree: NBTree, example: Example) -> tuple[str, np.ndarray]:
    """Route one example to its leaf and classify with the leaf model under
    the tree's attribute weights. Returns (label, normalised per-class
    probabilities)."""
    model = route_example(tree.root, dict(zip(tree.attribute_names, example.values)))
    scores = model.log_scores(model.encode_example(example)[:, None], tree.attr_weights, n=1)
    return tree.classes[int(np.argmax(scores[0]))], _normalise_rows(scores)[0]
