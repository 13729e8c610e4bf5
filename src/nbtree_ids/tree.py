"""The node type, routing and file form shared by the gain tree and the NB-tree.

Both trees split the same way: multi-way on a discrete attribute (one child
per symbol seen at the node), binary on a continuous one (``v <= threshold``
goes left). They differ only in what a leaf holds: the gain tree
(``attribute_weighting.DecisionTree``) keeps a class label, the NB-tree
(``nbtree.NBTree``) a naive-Bayes model. An NB-tree node may also list
domain symbols that had no training rows; a value on such an empty branch
ends at the node's own ``fallback_model``. A symbol unseen at training time
goes to the heaviest child.

``TreeNode.branch`` is the one place that decides where a value goes. Two
walks apply it: ``route_rows`` partitions a whole dataset node by node (it
asks ``branch`` once per domain symbol, which gives a code-to-child table),
and ``route_example`` follows one example, the per-example reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import WeightedDataset
from .exceptions import SchemaError
from .probability import NaiveBayesModel


@dataclass
class TreeNode:
    """One tree node. Internal nodes carry a split attribute (and for
    continuous splits a threshold); leaves carry ``payload``, a class label
    or a naive-Bayes model. Root depth is 1."""

    depth: int
    weight: float
    n: int
    payload: str | NaiveBayesModel | None = None
    attribute: str | None = None
    threshold: float | None = None
    children: dict[str, "TreeNode"] | None = None   # discrete branches by symbol
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    empty_branches: tuple[str, ...] = ()
    fallback_model: NaiveBayesModel | None = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    def child_nodes(self) -> list["TreeNode"]:
        if self.is_leaf:
            return []
        if self.threshold is not None:
            return [self.left, self.right]
        return list(self.children.values())

    def heaviest_child(self) -> "TreeNode":
        """The child with the most weight. Ties go left, or to the smallest
        symbol in sorted order, which is the order a saved tree lists them,
        so a built tree and its reloaded copy agree."""
        if self.threshold is not None:
            return self.left if self.left.weight >= self.right.weight else self.right
        return min(self.children.items(), key=lambda kv: (-kv[1].weight, kv[0]))[1]

    def goes_left(self, values):
        """Threshold test for a value or an array of values."""
        return values <= self.threshold

    def branch(self, value) -> "TreeNode | None":
        """The child one attribute value goes to, or None when the value's
        branch was empty at training time (the walk ends at
        ``fallback_model``)."""
        if self.threshold is not None:
            return self.left if self.goes_left(value) else self.right
        child = self.children.get(value)
        if child is not None:
            return child
        if value in self.empty_branches:
            return None
        return self.heaviest_child()   # value unseen at training time


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.child_nodes())


def route_rows(root: TreeNode, dataset: WeightedDataset,
               ) -> Iterator[tuple[str | NaiveBayesModel, np.ndarray]]:
    """Partition the dataset's rows node by node. Yields (payload, row
    indices) for every leaf or empty branch that receives rows; each row is
    in exactly one pair."""
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
        col = dataset.columns[j][rows]
        if node.threshold is not None:
            left = node.goes_left(col)
            parts = [(node.left, rows[left]), (node.right, rows[~left])]
        else:
            # code -> where that symbol goes; codes that go to the same
            # place share the slot of the first of them
            ends = [node.branch(sym) for sym in dataset.schema.attributes[j].domain]
            first: dict[int, int] = {}
            slots = np.array([first.setdefault(id(end), k) for k, end in enumerate(ends)])[col]
            parts = [(ends[k], rows[slots == k]) for k in first.values()]
        for child, sub in parts:
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
        if node.threshold is not None:
            lines.append(f"{pad}{node.depth} {branch}split {node.attribute} @ {node.threshold!r}")
            walk(node.left, f"<= {node.threshold!r} -> ")
            walk(node.right, f"> {node.threshold!r} -> ")
            return
        lines.append(f"{pad}{node.depth} {branch}split {node.attribute}")
        for sym, child in node.children.items():
            walk(child, f"= {sym} -> ")
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
        doc["left"] = node_to_dict(node.left)
        doc["right"] = node_to_dict(node.right)
        return doc
    doc["children"] = {sym: node_to_dict(c) for sym, c in node.children.items()}
    if node.empty_branches:
        doc["empty_branches"] = list(node.empty_branches)
        doc["fallback_model"] = node.fallback_model.to_dict()
    return doc


def node_from_dict(doc: dict) -> TreeNode:
    node = TreeNode(depth=doc["depth"], weight=doc["weight"], n=doc["n"])
    if "attribute" not in doc:
        node.payload = NaiveBayesModel.from_dict(doc["model"]) if "model" in doc else doc["label"]
        return node
    node.attribute = doc["attribute"]
    if "threshold" in doc:
        node.threshold = doc["threshold"]
        node.left = node_from_dict(doc["left"])
        node.right = node_from_dict(doc["right"])
        return node
    node.children = {sym: node_from_dict(c) for sym, c in doc["children"].items()}
    if "empty_branches" in doc:
        node.empty_branches = tuple(doc["empty_branches"])
        node.fallback_model = NaiveBayesModel.from_dict(doc["fallback_model"])
    return node


class TreeModel:
    """Inspection and the JSON file form, shared by the two tree classes.
    A subclass is a dataclass with ``schema_hash``, ``attribute_names`` and
    ``root`` fields and its own ``to_dict``/``from_dict``."""

    @property
    def attribute_count(self) -> int:
        return len(self.attribute_names)

    def check_schema(self, dataset: WeightedDataset) -> None:
        if dataset.schema.structural_hash() != self.schema_hash:
            raise SchemaError("dataset schema does not match the tree schema")

    def node_count(self) -> int:
        return sum(1 for _ in iter_nodes(self.root))

    def dump(self) -> str:
        return dump_tree(self.root)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
