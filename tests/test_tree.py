"""The grower's invariants and the batch router against the per-example walk,
on both kinds of tree."""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import synth
from nbtree_ids.attribute_weighting import DecisionTree, build_weighted_tree
from nbtree_ids.dataset import AttributeSpec, Schema
from nbtree_ids.nbtree import NBTreeParams, build_nbtree, classify_nbtree
from nbtree_ids.tree import iter_nodes, route_example, split_rows, threshold_candidates

CLASSES = ("A", "B", "C")


def random_training(rng, kinds):
    """A small dataset whose labels depend on the attributes. Each discrete
    attribute leaves the last symbol of its domain out of training."""
    n = int(rng.integers(20, 60))
    attrs, cols = [], []
    for j, kind in enumerate(kinds):
        if kind == "discrete":
            domain = tuple(f"s{v}" for v in range(int(rng.integers(2, 5))))
            attrs.append(AttributeSpec(f"f{j}", "discrete", domain))
            cols.append(rng.integers(0, len(domain) - 1, size=n))
        else:
            attrs.append(AttributeSpec(f"f{j}", "continuous"))
            cols.append(rng.integers(0, 6, size=n).astype(float))
    score = sum((c + j) % 3 for j, c in enumerate(cols)) + (rng.random(n) < 0.2)
    labels = [CLASSES[int(s) % 3] for s in score]
    rows = [
        tuple(a.domain[int(c[i])] if a.is_discrete else float(c[i]) for a, c in zip(attrs, cols))
        for i in range(n)
    ]
    return synth.make_dataset(Schema(tuple(attrs), CLASSES), rows, labels)


def probe_dataset(rng, schema, roots):
    """Rows over every training symbol, the symbols left out of training,
    one symbol unseen at training (a permissively extended domain), and
    each tree threshold as an exact value."""
    thresholds = {a.name: [] for a in schema.attributes}
    for root in roots:
        for node in iter_nodes(root):
            if node.threshold is not None:
                thresholds[node.attribute].append(node.threshold)
    attrs, pools = [], []
    for a in schema.attributes:
        if a.is_discrete:
            attrs.append(AttributeSpec(a.name, "discrete", a.domain + ("unseen",)))
            pools.append(list(attrs[-1].domain))
        else:
            attrs.append(a)
            pools.append(thresholds[a.name] + [-1.0, 0.0, 2.5, 5.0, 9.0])
    rows = [tuple(pool[int(rng.integers(len(pool)))] for pool in pools) for _ in range(60)]
    labels = [CLASSES[int(rng.integers(3))] for _ in rows]
    return synth.make_dataset(Schema(tuple(attrs), CLASSES), rows, labels)


def check_growth(root, schema, gain_tree):
    """Every split has at least two children, and their row counts add up
    to their parent's. An NB-tree's
    discrete split covers the domain with its children and empty
    branches; a gain tree's lists no empty branch, and no path of a gain
    tree tests a discrete attribute twice."""
    stack = [(root, frozenset())]
    while stack:
        node, tested = stack.pop()
        if node.is_leaf:
            continue
        children = list(node.children.values())
        assert len(children) >= 2
        assert sum(c.n for c in children) == node.n
        if node.threshold is None and gain_tree:
            assert node.empty_branches == ()
            assert node.attribute not in tested
            tested = tested | {node.attribute}
        elif node.threshold is None:
            domain = schema.attributes[schema.attribute_index(node.attribute)].domain
            assert sorted([*node.children, *node.empty_branches]) == sorted(domain)
        stack.extend((c, tested) for c in children)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["discrete", "continuous"]), min_size=1, max_size=3),
)
@example(seed=37, kinds=["discrete", "discrete"])  # once re-split a one-symbol node
def test_batch_routing_matches_per_example_walk(seed, kinds):
    rng = np.random.default_rng(seed)
    ds = random_training(rng, kinds)
    gain = build_weighted_tree(ds, min_leaf_examples=0.0)
    nbt = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0, max_depth=4))
    check_growth(gain.root, ds.schema, gain_tree=True)
    check_growth(nbt.root, ds.schema, gain_tree=False)
    probe = probe_dataset(rng, ds.schema, [gain.root, nbt.root])
    names = probe.schema.attribute_names
    examples = [probe.example(i) for i in range(probe.n)]

    walked = [CLASSES.index(route_example(gain.root, dict(zip(names, ex.values))))
              for ex in examples]
    np.testing.assert_array_equal(gain.predict_dataset(probe), walked)

    walked = [CLASSES.index(classify_nbtree(nbt, ex)[0]) for ex in examples]
    np.testing.assert_array_equal(nbt.predict_dataset(probe), walked)


# A gain-tree/1 document in its pinned file form: a threshold split, whose
# children are saved as "left" and "right", under a discrete split
SAVED_GAIN_TREE = """{
 "format": "gain-tree/1", "model_id": "tree-full", "schema_hash": "1d8f46548c201a59",
 "classes": ["normal", "attack"], "attributes": ["proto", "bytes"],
 "root": {"depth": 1, "weight": 1.0, "n": 8, "attribute": "proto", "children": {
  "tcp": {"depth": 2, "weight": 0.5, "n": 4, "attribute": "bytes", "threshold": 120.5,
          "left": {"depth": 3, "weight": 0.25, "n": 2, "label": "normal"},
          "right": {"depth": 3, "weight": 0.25, "n": 2, "label": "attack"}},
  "udp": {"depth": 2, "weight": 0.5, "n": 4, "label": "attack"}}}
}"""

SAVED_GAIN_TREE_DUMP = """\
1 split proto
  2 = tcp -> split bytes @ 120.5
    3 <= 120.5 -> leaf normal (n=2, w=0.25)
    3 > 120.5 -> leaf attack (n=2, w=0.25)
  2 = udp -> leaf attack (n=4, w=0.5)
"""


def test_saved_gain_tree_loads_dumps_and_routes_unchanged():
    doc = json.loads(SAVED_GAIN_TREE)
    tree = DecisionTree.from_dict(json.loads(SAVED_GAIN_TREE))
    assert tree.to_dict() == doc
    assert tree.dump() == SAVED_GAIN_TREE_DUMP
    schema = Schema((AttributeSpec("proto", "discrete", ("tcp", "udp", "icmp")),
                     AttributeSpec("bytes", "continuous")), ("normal", "attack"))
    # a threshold value goes left; icmp, unseen at training, goes to the
    # heaviest child, tcp by the tie-break on the smaller symbol
    rows = [("tcp", 100.0), ("tcp", 120.5), ("tcp", 121.0), ("udp", 0.0),
            ("icmp", 50.0), ("icmp", 500.0)]
    probe = synth.make_dataset(schema, rows, ["normal"] * len(rows))
    walked = [route_example(tree.root, dict(zip(schema.attribute_names, r))) for r in rows]
    assert walked == ["normal", "normal", "attack", "attack", "normal", "attack"]
    assert [tree.classes[i] for i in tree.predict_dataset(probe)] == walked



def test_threshold_between_adjacent_floats_cuts_between_them():
    # their midpoint rounds to the upper one, which would send every value left
    lo, hi = 49.99999999999999, 50.0
    assert (lo + hi) / 2 == hi
    values = np.tile([lo, hi], 20)
    (t,) = threshold_candidates(*np.unique(values, return_inverse=True), np.ones(len(values)))
    assert lo <= t < hi
    # the class is x xor y, which no single naive-Bayes model fits
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("y", "discrete", ("0", "1"))),
                    ("A", "B"))
    rows = [(v, y) for v in values for y in "01"]
    labels = ["AB"[int((v == hi) != (y == "1"))] for v, y in rows]
    tree = build_nbtree(synth.make_dataset(schema, rows, labels),
                        params=NBTreeParams(min_split_examples=1.0))
    cuts = [node for node in iter_nodes(tree.root) if node.threshold is not None]
    assert cuts and all(set(node.children) == {"<=", ">"} for node in cuts)


@settings(max_examples=60, deadline=None)
@given(symbols=st.sampled_from([1, 256, 257]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(0, 600))
def test_split_rows_equals_a_wide_stable_sort(symbols, seed, n):
    """A discrete split's parts, sorted in the narrowest code dtype, equal
    those of an int64 stable argsort, on domains at and past 8 bits."""
    rng = np.random.default_rng(seed)
    column = rng.integers(0, symbols, size=n + 20).astype(np.int32)
    column[:2] = 0, symbols - 1   # the domain's ends
    rows = rng.permutation(n + 20)[:n]
    domain = tuple(f"s{k}" for k in range(symbols))
    parts = split_rows(column, rows, None, domain)
    values = column[rows].astype(np.int64)
    ordered = rows[np.argsort(values, kind="stable")]
    want = np.split(ordered, np.cumsum(np.bincount(values, minlength=symbols))[:-1])
    assert len(parts) == symbols
    assert all(np.array_equal(got, w) for got, w in zip(parts, want))
