"""The node type, growth, routing and file form shared by the gain tree and the NB-tree.

Both trees split the same way: multi-way on a discrete attribute (one child
per symbol seen at the node), binary on a continuous one (``v <= threshold``
goes left). A node holds its children in one map, keyed by symbol, or by
``"<="`` and ``">"`` under a threshold. The trees differ only in when a
node stops and what a leaf holds: the gain tree
(``attribute_weighting.DecisionTree``) keeps a class label, the NB-tree
(``nbtree.NBTree``) a naive-Bayes model. An NB-tree node may also
list domain symbols that had no training rows; a value on such an empty
branch ends at the node's own ``fallback_model``. A symbol unseen at
training time goes to the heaviest child.

Both builders grow through ``grow_tree``, cut continuous attributes at
``threshold_candidates`` and weigh every split by one criterion, the
class entropy it leaves (``split_entropy`` of its parts' class masses,
summed in an order that makes equal masses tie exactly): the gain tree
takes the best split, the NB-tree cross-validates a continuous
attribute's ``best_cuts``. The cut kernels read a node's column as its
sorted distinct values and each row's intp rank among them, which both
builders take from the training set's one sort of the column
(``probability.subset_ranks``), so no node sorts. ``split_rows``
partitions rows by a split and ``TreeNode.branch`` sends one value down.
``route_rows`` partitions a whole dataset node by node with ``split_rows``
(sending each symbol's rows where ``branch`` sends the symbol), and
``route_example`` follows one example, the per-example reference.
``TreeModel`` holds what the two tree classes share: the batch walk and
the JSON document, whose file form names a threshold split's children
``left`` and ``right``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .dataset import WeightedDataset
from .exceptions import DataFormatError, SchemaError
from .probability import NaiveBayesModel

_THRESHOLD_CAP = 32     # candidate cut points per continuous attribute
# of those, the lowest-entropy ones the NB-tree cross-validates: the fewest
# that keep the NB-tree's quality on the desk seeds (BENCH_quality.json)
_BEST_CUTS = 3


def goes_left(values, threshold):   # a value or an array of values
    return values <= threshold


def threshold_candidates(distinct: np.ndarray, rank: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    """Candidate thresholds of a column given as its sorted ``distinct``
    values and each row's ``rank`` among them: midpoints between
    consecutive distinct values, capped, when there are more than
    ``_THRESHOLD_CAP`` gaps, by taking midpoints between weighted-quantile
    cut points read from the weighted histogram of ranks."""
    if distinct.size < 2:
        return np.empty(0)
    cuts = distinct
    if distinct.size - 1 > _THRESHOLD_CAP:
        levels = np.arange(1, _THRESHOLD_CAP + 1) / (_THRESHOLD_CAP + 1)
        cw = np.cumsum(np.bincount(rank, weights, minlength=distinct.size))
        cw /= cw[-1]
        cuts = distinct[_distinct(np.searchsorted(cw, levels, side="left"))]
        if cuts.size < 2:
            # weight mass collapsed onto one value: fall back to evenly spaced cuts
            cuts = _distinct(distinct[np.linspace(0, distinct.size - 1,
                                                  _THRESHOLD_CAP + 1).astype(int)])
    mid = (cuts[1:] + cuts[:-1]) / 2.0
    # the midpoint of two adjacent floats rounds to one of them; cut at the
    # lower one then, so that each cut sends a value to either side
    return np.where(mid < cuts[1:], mid, cuts[:-1])


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, each kept once: what
    ``np.unique`` gives, without its sort."""
    keep = np.ones(ascending.size, bool)
    keep[1:] = ascending[1:] != ascending[:-1]
    return ascending[keep]


def cut_masses(distinct: np.ndarray, rank: np.ndarray, labels: np.ndarray,
               weights: np.ndarray, thresholds: np.ndarray, n_classes: int) -> np.ndarray:
    """The (cuts, 2, classes) class masses of the two sides, ``v <= threshold``
    and not, of each cut of a column given as in ``threshold_candidates``.
    Every cut's masses are read from the cumulative sum, over distinct
    values, of one ``bincount`` over (rank, class)."""
    cum = np.cumsum(np.bincount(rank * n_classes + labels, weights=weights,
                                minlength=distinct.size * n_classes)
                    .reshape(distinct.size, n_classes), axis=0)
    left = cum[np.searchsorted(distinct, thresholds, side="right") - 1]
    return np.stack([left, cum[-1] - left], axis=1)


def split_entropy(parts: np.ndarray) -> np.ndarray:
    """The class entropy (bits) a split leaves times its mass, for each
    (parts, classes) table of class masses in ``parts``' last two axes:
    n log2 n for each part's mass n, less m log2 m for each class mass m.
    One part gives a node's own entropy times its mass. The terms are added
    one by one in ascending order, so the sum depends only on which masses
    the split makes, not on which part or class holds them: two cuts whose
    sides hold the same masses (a mirror image, say) leave bit-equal
    entropies and tie."""
    *lead, k, c = parts.shape
    masses = np.concatenate([parts.sum(axis=-1), parts.reshape(*lead, k * c)], axis=-1)
    terms = masses * np.log2(masses, out=np.zeros_like(masses), where=masses > 0)
    terms[..., k:] *= -1.0
    return np.cumsum(np.sort(terms, axis=-1), axis=-1)[..., -1]


def best_cuts(distinct: np.ndarray, rank: np.ndarray, labels: np.ndarray,
              weights: np.ndarray, n_classes: int) -> np.ndarray:
    """The ``_BEST_CUTS`` of a column's ``threshold_candidates`` that leave
    the least class entropy (``split_entropy``), in ascending order; of
    cuts with equal entropy the lower one is kept."""
    thresholds = threshold_candidates(distinct, rank, weights)
    h = split_entropy(cut_masses(distinct, rank, labels, weights, thresholds, n_classes))
    return thresholds[np.sort(np.argsort(h, kind="stable")[:_BEST_CUTS])]


def split_rows(column: np.ndarray, rows: np.ndarray, threshold: float | None,
               domain: tuple[str, ...]) -> list[np.ndarray]:
    """The rows of each branch of a split on ``column``: ``[<=, >]`` for a
    threshold, else one entry per domain symbol in domain order (empty
    where no row has the symbol). Each part keeps the order of ``rows``."""
    values = column[rows]
    if threshold is not None:
        left = goes_left(values, threshold)
        return [rows[left], rows[~left]]
    # codes as narrow as the domain allows, which numpy's stable sort sorts
    # by radix: the same order as the int32 codes give, several times faster
    order = np.argsort(values.astype(np.min_scalar_type(len(domain) - 1)), kind="stable")
    ends = np.cumsum(np.bincount(values, minlength=len(domain)))
    return np.split(rows[order], ends[:-1])


@dataclass
class TreeNode:
    """One tree node. Internal nodes carry a split attribute (and for
    continuous splits a threshold) and their ``children``, keyed by symbol,
    or by ``"<="`` and ``">"`` under a threshold; leaves carry ``payload``,
    a class label or a naive-Bayes model. Root depth is 1."""

    depth: int
    weight: float
    n: int
    payload: str | NaiveBayesModel | None = None
    attribute: str | None = None
    threshold: float | None = None
    children: dict[str, "TreeNode"] = field(default_factory=dict)
    empty_branches: tuple[str, ...] = ()
    fallback_model: NaiveBayesModel | None = None
    _heaviest: "TreeNode | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    def heaviest_child(self) -> "TreeNode":
        """The child with the most weight. Ties go to the smallest key in
        sorted order (``"<="`` before ``">"``, so left), which is the order a
        saved tree lists them, so a built tree and its reloaded copy agree.
        Found on the first call: a built tree does not change."""
        if self._heaviest is None:
            self._heaviest = min(self.children.items(),
                                 key=lambda kv: (-kv[1].weight, kv[0]))[1]
        return self._heaviest

    def branch(self, value) -> "TreeNode | None":
        """The child one attribute value goes to, or None when the value's
        branch was empty at training time (the walk ends at
        ``fallback_model``)."""
        if self.threshold is not None:
            value = "<=" if goes_left(value, self.threshold) else ">"
        child = self.children.get(value)
        if child is None and value not in self.empty_branches:
            return self.heaviest_child()   # value unseen at training time
        return child


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def grow_tree(dataset: WeightedDataset, split_of: Callable) -> TreeNode:
    """Grow a tree over ``dataset`` and return its root. ``split_of(node,
    rows, path)`` sets the node's weight and payload and returns None for a
    leaf, or ``(attribute index, threshold, fallback model)``. The loop then
    creates one child per non-empty branch of ``split_rows``, in branch
    order, and records a discrete split's empty branches only when given a
    fallback. A path is ``root`` plus ``/<attr><=``, ``/<attr>>`` or
    ``/<attr>=<sym>`` per split above; nodes are visited in no set order.
    """
    specs = dataset.schema.attributes
    root = TreeNode(depth=1, weight=0.0, n=dataset.n)
    stack = [(root, np.arange(dataset.n), "root")]
    while stack:
        node, rows, path = stack.pop()
        split = split_of(node, rows, path)
        if split is None:
            continue
        j, threshold, fallback = split
        spec = specs[j]
        node.attribute, node.threshold = spec.name, threshold
        parts = split_rows(dataset.columns[j], rows, threshold, spec.domain)
        keys = ("<=", ">") if threshold is not None else spec.domain
        for key, sub in zip(keys, parts):
            if len(sub):
                child = node.children[key] = TreeNode(depth=node.depth + 1, weight=0.0,
                                                      n=len(sub))
                step = key if threshold is not None else f"={key}"
                stack.append((child, sub, f"{path}/{spec.name}{step}"))
        if fallback is not None:
            node.empty_branches = tuple(key for key, sub in zip(keys, parts) if not len(sub))
            if node.empty_branches:
                node.fallback_model = fallback
    return root


def route_rows(root: TreeNode, dataset: WeightedDataset,
               ) -> Iterator[tuple[str | NaiveBayesModel, np.ndarray]]:
    """Partition the dataset's rows node by node. Yields (payload, row
    indices) pairs for the leaves and empty branches that receive rows, a
    leaf once per symbol part that reaches it; each row is in exactly one
    pair."""
    attr_index = {name: j for j, name in enumerate(dataset.schema.attribute_names)}
    stack = [(root, np.arange(dataset.n))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            yield node.payload, rows
            continue
        j = attr_index[node.attribute]
        domain = dataset.schema.attributes[j].domain
        ends = ((node.children["<="], node.children[">"]) if node.threshold is not None
                else [node.branch(sym) for sym in domain])
        for child, sub in zip(ends, split_rows(dataset.columns[j], rows, node.threshold, domain)):
            if child is not None:
                stack.append((child, sub))
            elif sub.size:
                yield node.fallback_model, sub


def route_example(root: TreeNode, values: dict[str, object]) -> str | NaiveBayesModel:
    """The payload one example reaches; ``values`` maps attribute name to
    a symbol or a number."""
    node = root
    while not node.is_leaf:
        v = values[node.attribute]
        child = node.branch(float(v) if node.threshold is not None else str(v))
        if child is None:
            return node.fallback_model
        node = child
    return node.payload


def dump_tree(root: TreeNode) -> str:
    """Indented audit text, one node per line."""
    lines: list[str] = []

    def walk(node: TreeNode, branch: str) -> None:
        pad = "  " * (node.depth - 1)
        if node.is_leaf:
            what = "nb-leaf" if isinstance(node.payload, NaiveBayesModel) else f"leaf {node.payload}"
            lines.append(f"{pad}{node.depth} {branch}{what} (n={node.n}, w={node.weight:.6g})")
            return
        thr = node.threshold
        at = "" if thr is None else f" @ {thr!r}"
        lines.append(f"{pad}{node.depth} {branch}split {node.attribute}{at}")
        for key, child in node.children.items():
            walk(child, f"= {key} -> " if thr is None else f"{key} {thr!r} -> ")
        if node.empty_branches:
            lines.append(f"{pad}  {node.depth + 1} empty branches "
                         f"{list(node.empty_branches)} -> parent nb")

    walk(root, "")
    return "\n".join(lines) + "\n"


def node_to_dict(node: TreeNode) -> dict:
    doc: dict = {"depth": node.depth, "weight": node.weight, "n": node.n}
    if node.is_leaf:
        if isinstance(node.payload, NaiveBayesModel):
            doc["model"] = node.payload.to_dict()
        else:
            doc["label"] = node.payload
        return doc
    doc["attribute"] = node.attribute
    if node.threshold is not None:
        doc["threshold"] = node.threshold
        doc["left"] = node_to_dict(node.children["<="])
        doc["right"] = node_to_dict(node.children[">"])
        return doc
    doc["children"] = {sym: node_to_dict(c) for sym, c in node.children.items()}
    if node.empty_branches:
        doc["empty_branches"] = list(node.empty_branches)
        doc["fallback_model"] = node.fallback_model.to_dict()
    return doc


def _number(doc: dict, key: str, kind: type | tuple[type, ...] = (int, float),
            least: float = -math.inf):
    """``doc[key]``, or ``DataFormatError`` unless it is a finite ``kind`` (not
    a bool) of at least ``least``."""
    value = doc[key]
    if (isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value)
            or value < least):
        at_least = "" if least == -math.inf else f" >= {least:g}"
        raise DataFormatError(f"node {key} must be a finite "
                              f"{'integer' if kind is int else 'number'}{at_least}, not {value!r}")
    return value


def node_from_dict(doc: dict, attributes: tuple[str, ...], check: Callable,
                   depth: int = 1) -> TreeNode:
    """Rebuild a subtree whose root sits at ``depth`` and whose splits test
    only the tree's ``attributes``; ``check`` returns each leaf and fallback
    payload, or raises ``DataFormatError`` when the payload does not fit
    the tree."""
    node = TreeNode(depth=_number(doc, "depth", int), weight=_number(doc, "weight", least=0),
                    n=_number(doc, "n", int, least=0))
    if node.depth != depth:
        raise DataFormatError(f"node depth is {node.depth}, not its parent's plus one ({depth})")
    if "attribute" not in doc:
        node.payload = check(NaiveBayesModel.from_dict(doc["model"]) if "model" in doc
                             else doc["label"])
        return node
    node.attribute = doc["attribute"]
    if node.attribute not in attributes:
        raise DataFormatError(f"split on {node.attribute!r}, not one of the tree's attributes")
    if "threshold" in doc:
        node.threshold = _number(doc, "threshold")
        node.children = {"<=": node_from_dict(doc["left"], attributes, check, depth + 1),
                         ">": node_from_dict(doc["right"], attributes, check, depth + 1)}
        return _parts_add_up(node)
    children = doc["children"]
    if not isinstance(children, dict) or not children:
        raise DataFormatError(f"split on {node.attribute!r} must map at least one symbol "
                              "to a child")
    node.children = {sym: node_from_dict(c, attributes, check, depth + 1)
                     for sym, c in children.items()}
    if "empty_branches" in doc:
        node.empty_branches = tuple(doc["empty_branches"])
        if set(node.empty_branches) & node.children.keys():
            raise DataFormatError(f"split on {node.attribute!r} lists a child among its "
                                  "empty branches")
        node.fallback_model = check(NaiveBayesModel.from_dict(doc["fallback_model"]))
    return _parts_add_up(node)


def _parts_add_up(node: TreeNode) -> TreeNode:
    """``node``, or ``DataFormatError`` unless its children's ``n`` add up to
    its own and their weights to its weight within 1e-9 relative; a split
    hands each row to exactly one child."""
    n = sum(child.n for child in node.children.values())
    weight = sum(child.weight for child in node.children.values())
    if n != node.n or not math.isclose(weight, node.weight, rel_tol=1e-9):
        raise DataFormatError(f"the children of the split on {node.attribute!r} hold n={n}, "
                              f"weight={weight!r}, not the node's n={node.n}, "
                              f"weight={node.weight!r}")
    return node


class TreeModel:
    """The batch walk, inspection and the JSON document shared by the two
    tree classes. A subclass is a dataclass with ``schema_hash``,
    ``classes``, ``attribute_names``, ``root`` and ``model_id`` fields; it
    names its document's ``FORMAT``, rejects a leaf that does not fit it
    (``check_payload``) and adds any entries of its own (``extra_entries``
    and ``read_extra``)."""

    @property
    def attribute_count(self) -> int:
        return len(self.attribute_names)

    def route_predict(self, dataset: WeightedDataset, leaf_rule: Callable) -> np.ndarray:
        """Each row's class index: ``route_rows`` hands every leaf (or empty
        branch) its rows, and ``leaf_rule(payload, rows)`` classifies them."""
        if dataset.schema.structural_hash() != self.schema_hash:
            raise SchemaError("dataset schema does not match the tree schema")
        out = np.empty(dataset.n, dtype=np.int64)
        for payload, rows in route_rows(self.root, dataset):
            out[rows] = leaf_rule(payload, rows)
        return out

    def extra_entries(self) -> dict:
        return {}

    @classmethod
    def read_extra(cls, doc: dict, attributes: tuple[str, ...]) -> dict:
        """The subclass's own fields, read from ``doc``."""
        return {}

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "model_id": self.model_id,
            "schema_hash": self.schema_hash,
            "classes": list(self.classes),
            "attributes": list(self.attribute_names),
            **self.extra_entries(),
            "root": node_to_dict(self.root),
        }

    @classmethod
    def from_dict(cls, doc: dict):
        if doc.get("format") != cls.FORMAT:
            raise DataFormatError(f"not a {cls.FORMAT} document")
        model_id, schema_hash = doc.get("model_id", cls.model_id), doc["schema_hash"]
        classes, attributes = tuple(doc["classes"]), tuple(doc["attributes"])
        extra = cls.read_extra(doc, attributes)
        root = node_from_dict(doc["root"], attributes,
                              lambda payload: cls.check_payload(payload, classes, attributes,
                                                                schema_hash))
        return cls(schema_hash=schema_hash, classes=classes, attribute_names=attributes,
                   root=root, model_id=model_id, **extra)

    def node_count(self) -> int:
        return sum(1 for _ in iter_nodes(self.root))

    def dump(self) -> str:
        return dump_tree(self.root)
