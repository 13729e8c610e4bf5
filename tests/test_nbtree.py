import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import synth
from nbtree_ids import dataset as dataset_module
from nbtree_ids import nbtree as nbtree_module
from nbtree_ids import tree
from nbtree_ids.attribute_weighting import SelectionParams, _gain
from nbtree_ids.dataset import AttributeSpec, Schema, WeightedDataset, load_dataset
from nbtree_ids.evaluation import ComparisonConfig, train_models
from nbtree_ids.exceptions import DataFormatError
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy
from nbtree_ids.nbtree import (
    NBTree,
    NBTreeParams,
    _BuildContext,
    _fold_assign,
    _mix64,
    _path_salt,
    build_nbtree,
    classify_nbtree,
)
from nbtree_ids.probability import (
    bin_ranks,
    fit_codes,
    fit_naive_bayes,
    rank_codes,
    rank_column,
)
from nbtree_ids.tree import _BEST_CUTS, best_cuts, grow_tree, iter_nodes, node_to_dict, route_rows
from test_tree import CLASSES, random_training


def disc_schema(*domains, classes=("A", "B")):
    attrs = tuple(
        AttributeSpec(f"f{i}", "discrete", dom) for i, dom in enumerate(domains)
    )
    return Schema(attrs, classes)


def root_search(ds, attr_weights=None, params=None):
    """A build over ``ds``, its root's view and the root's fold salt."""
    ctx = _BuildContext(ds, attr_weights, params)
    return ctx, ctx.node_view(np.arange(ds.n)), _path_salt("root")


def misclassified(ds, attr_weights):
    """Rows of ``ds`` that the root's own model gets wrong, as the build's
    perfect-leaf check counts them."""
    ctx, view, _ = root_search(ds, attr_weights)
    model = fit_codes(ctx.schema, view.codes, view.edges, view.labels, view.weights, ctx.k)
    return ctx.misclassified(view, model)


def attribute_utility(ctx, view, j, salt):
    """Attribute j's best (utility, threshold) at the node, as the split
    search scores it: the best of its ``cuts``, ties to the lowest, or the
    node's own accuracy when it has none."""
    node_acc = ctx.cv_accuracy(view, np.arange(len(view.rows)), salt)
    found = [(ctx.cut_utility(view, j, t, salt, node_acc), t) for t in ctx.cuts(view, j)]
    u, t = max(found, key=lambda ut: ut[0], default=(node_acc, None))
    return u, (None if t is None else float(t))


def split_utility(ds, name, attr_weights=None, params=None):
    """The root's (utility, threshold) for attribute ``name``."""
    ctx, view, salt = root_search(ds, attr_weights, params)
    return attribute_utility(ctx, view, ds.schema.attribute_index(name), salt)


def best_split(ds, attr_weights=None, params=None):
    """The root's split decision."""
    ctx, view, salt = root_search(ds, attr_weights, params)
    return ctx.best_split(view, salt)


# -- reference re-implementation of the utility protocol --------------------------


def _oracle_priors(cw, total, k, n_classes):
    if total <= 0 or (min(cw.values()) <= 0 and k > 0):
        return {c: (cw[c] + k) / (total + k * n_classes) for c in cw}
    return {c: cw[c] / total for c in cw}


def _oracle_nb_predict(train_rows, train_labels, train_weights,
                       eval_rows, classes, domains, k):
    """Dict-based weighted NB: fit on the train split, score eval rows."""
    total = sum(train_weights)
    cw = {c: 0.0 for c in classes}
    for lab, w in zip(train_labels, train_weights):
        cw[lab] += w
    priors = _oracle_priors(cw, total, k, len(classes))
    preds = []
    for row in eval_rows:
        best_c, best_s = None, None
        for c in classes:
            s = math.log(priors[c]) if priors[c] > 0 else -math.inf
            for j, dom in enumerate(domains):
                V = len(dom)
                mass = sum(
                    w for r, lab, w in zip(train_rows, train_labels, train_weights)
                    if lab == c and r[j] == row[j]
                )
                p = (mass + k) / (cw[c] + k * V) if (cw[c] + k * V) > 0 else 0.0
                s += math.log(p) if p > 0 else -math.inf
            if best_s is None or s > best_s:
                best_c, best_s = c, s
        preds.append(best_c)
    return preds


def _oracle_encode(rows, domains, bins):
    """Re-bin every continuous attribute (domain ``None``) on this
    partition's own values, as the partition's own leaf model would; value
    v falls in bin i when edge[i-1] < v <= edge[i]."""
    cols, doms = [], []
    for j, dom in enumerate(domains):
        col = [r[j] for r in rows]
        if dom is None:
            edges = oracles.equal_frequency_edges(np.asarray(col, dtype=float), bins)
            col = [sum(1 for e in edges if e < v) for v in col]
            dom = tuple(range(len(edges) + 1))
        cols.append(col)
        doms.append(dom)
    return list(zip(*cols)), doms


def _oracle_cv_accuracy(rows, labels, weights, row_ids, classes, domains, k, folds, salt,
                        bins=10):
    rows, domains = _oracle_encode(rows, domains, bins)
    class_idx = {c: i for i, c in enumerate(classes)}
    lab_arr = np.array([class_idx[c] for c in labels])
    keys = _mix64(np.asarray(row_ids, dtype=np.uint64) ^ salt)
    fold = _fold_assign(lab_arr, keys, folds)
    hit = 0.0
    for f in range(folds):
        train = [i for i in range(len(rows)) if fold[i] != f]
        evals = [i for i in range(len(rows)) if fold[i] == f]
        if not evals:
            continue
        preds = _oracle_nb_predict(
            [rows[i] for i in train], [labels[i] for i in train],
            [weights[i] for i in train], [rows[i] for i in evals],
            classes, domains, k,
        )
        for i, p in zip(evals, preds):
            if p == labels[i]:
                hit += weights[i]
    return hit / sum(weights)


def _oracle_split_utility(rows, labels, weights, classes, domains, j, k, folds, bins=10):
    """Split utility with the same child-salt and fallback rules: every
    branch of a discrete attribute, or the best midpoint threshold of a
    continuous one (domain ``None``; at most 32 distinct-value gaps). Each
    child is cross-validated with bins fitted on its own rows."""
    salt = _path_salt("root")
    ids = np.arange(len(rows))
    node_acc = _oracle_cv_accuracy(rows, labels, weights, ids, classes, domains, k, folds, salt,
                                   bins)
    total = sum(weights)
    mass = total / len(rows)
    idx = range(len(rows))
    if domains[j] is None:
        vals = np.unique([r[j] for r in rows])
        splits = [(t, [("le", [i for i in idx if rows[i][j] <= t]),
                       ("gt", [i for i in idx if rows[i][j] > t])])
                  for t in (vals[1:] + vals[:-1]) / 2.0]
    else:
        splits = [(None, [(v, [i for i in idx if rows[i][j] == v]) for v in domains[j]])]
    if not splits:
        return node_acc, node_acc
    best = -1.0
    for t, groups in splits:
        u = 0.0
        for key, pos in groups:
            if not pos:
                continue
            wch = sum(weights[i] for i in pos)
            if wch < mass:
                acc = node_acc
            else:
                child_salt = salt ^ _path_salt(f"{j}:{key}:{t}")
                acc = _oracle_cv_accuracy(
                    [rows[i] for i in pos], [labels[i] for i in pos],
                    [weights[i] for i in pos], ids[pos], classes, domains, k, folds,
                    child_salt, bins,
                )
            u += wch / total * acc
        best = max(best, u)
    return best, node_acc


# -- misclassification check ---------------------------------------------------------


def test_single_class_partition_has_no_misclassifications():
    ds = synth.make_dataset(
        disc_schema(("x", "y")), [("x",), ("y",), ("x",)], ["A"] * 3
    )
    assert misclassified(ds, np.ones(1)) == 0


def test_xor_partition_is_misclassified_by_nb():
    ds = synth.make_xor_dataset(50)
    count = misclassified(ds, np.ones(2))
    assert count > 0


def test_misclassification_count_matches_oracle():
    rng = np.random.default_rng(3)
    domains = [("x", "y"), ("0", "1", "2")]
    rows = [
        (domains[0][int(rng.integers(2))], domains[1][int(rng.integers(3))])
        for _ in range(20)
    ]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(20)]
    ds = synth.make_dataset(disc_schema(*domains), rows, labels)
    k_eff = 1.0 * ds.total_weight / ds.n
    preds = _oracle_nb_predict(rows, labels, list(ds.weights), rows,
                               ("A", "B"), domains, k_eff)
    want = sum(1 for p, t in zip(preds, labels) if p != t)
    assert misclassified(ds, np.ones(2)) == want


# -- split utility ---------------------------------------------------------------------


def test_pure_children_have_utility_one():
    schema = disc_schema(("x", "y"), ("0", "1"))
    rows = [("x", "0"), ("x", "1"), ("y", "0"), ("y", "1")] * 10
    labels = ["A", "A", "B", "B"] * 10
    ds = synth.make_dataset(schema, rows, labels)
    assert split_utility(ds, "f0")[0] == pytest.approx(1.0)


def test_constant_attribute_keeps_node_utility():
    schema = disc_schema(("only",), ("0", "1"))
    rows = [("only", ("0", "1")[i % 2]) for i in range(30)]
    labels = [("A", "B")[(i // 2) % 2] for i in range(30)]
    ds = synth.make_dataset(schema, rows, labels)
    utility, _ = split_utility(ds, "f0")
    k_eff = 1.0 * ds.total_weight / ds.n
    node_acc = _oracle_cv_accuracy(
        rows, labels, list(ds.weights), np.arange(30), ("A", "B"),
        [("only",), ("0", "1")], k_eff, 5, _path_salt("root"),
    )
    assert utility == pytest.approx(node_acc, abs=1e-9)
    bs = best_split(ds, params=NBTreeParams(min_split_examples=1.0))
    assert bs is None or bs.attribute != "f0"


def test_split_utility_matches_reimplementation():
    rng = np.random.default_rng(9)
    domains = [("x", "y"), ("0", "1", "2")]
    rows = [
        (domains[0][int(rng.integers(2))], domains[1][int(rng.integers(3))])
        for _ in range(30)
    ]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(30)]
    weights = list(rng.uniform(0.5, 1.5, 30))
    ds = synth.make_dataset(disc_schema(*domains), rows, labels, weights)
    k_eff = 1.0 * ds.total_weight / ds.n
    utilities = {}
    for j, name in enumerate(("f0", "f1")):
        want, _ = _oracle_split_utility(
            rows, labels, weights, ("A", "B"), domains, j, k_eff, 5
        )
        got, _ = split_utility(ds, name)
        assert got == pytest.approx(want, abs=1e-9)
        utilities[name] = got
    # ordering agrees with the oracle by construction of the equality above
    assert sorted(utilities) == ["f0", "f1"]


def test_continuous_split_utility_rebins_each_child():
    # y separates N from P only on x=0; on the whole node 180 of 200 rows
    # sit at y=0, so the node's equal-frequency bins put N and P together
    rng = np.random.default_rng(31)
    rows = [(1.0, 0.0)] * 180
    rows += [(0.0, float(y)) for y in rng.uniform(0.01, 0.1, 10)]
    rows += [(0.0, float(y)) for y in rng.uniform(0.5, 1.0, 10)]
    labels = ["D"] * 180 + ["N"] * 10 + ["P"] * 10
    schema = Schema(
        (AttributeSpec("x", "continuous"), AttributeSpec("y", "continuous")),
        ("D", "N", "P"),
    )
    ds = synth.make_dataset(schema, rows, labels)
    assert list(oracles.equal_frequency_edges(ds.columns[1], 10)) == [0.0]
    k_eff = 1.0 * ds.total_weight / ds.n
    want, node_acc = _oracle_split_utility(
        rows, labels, list(ds.weights), ("D", "N", "P"), [None, None], 0, k_eff, 5
    )
    got, threshold = split_utility(ds, "x")
    assert threshold == pytest.approx(0.5)
    assert got == pytest.approx(want, abs=1e-9)
    assert got > node_acc


def test_continuous_split_utility_matches_reimplementation():
    rng = np.random.default_rng(17)
    n = 40
    rows = [
        (("x", "y")[int(rng.integers(2))], float(rng.integers(6)),
         round(float(rng.normal()), 2))
        for _ in range(n)
    ]
    labels = [
        ("A", "B")[int(r[1] + r[2] > 2.5) ^ int(rng.random() < 0.2)] for r in rows
    ]
    weights = list(rng.uniform(0.5, 1.5, n))
    schema = Schema(
        (AttributeSpec("f0", "discrete", ("x", "y")),
         AttributeSpec("f1", "continuous"), AttributeSpec("f2", "continuous")),
        ("A", "B"),
    )
    ds = synth.make_dataset(schema, rows, labels, weights)
    k_eff = 1.0 * ds.total_weight / ds.n
    params = NBTreeParams(bins=4)
    domains = [("x", "y"), None, None]
    for j, name in enumerate(("f0", "f1")):
        want, _ = _oracle_split_utility(
            rows, labels, weights, ("A", "B"), domains, j, k_eff, 5, bins=4
        )
        assert split_utility(ds, name, params=params)[0] == pytest.approx(want, abs=1e-9)


def test_split_utility_ordering_pure_vs_noise():
    rng = np.random.default_rng(13)
    # f0 determines the class; f1 is an independent coin
    rows, labels = [], []
    for _ in range(15):
        a = ("x", "y")[int(rng.integers(2))]
        rows.append((a, ("0", "1")[int(rng.integers(2))]))
        labels.append("A" if a == "x" else "B")
    ds = synth.make_dataset(disc_schema(("x", "y"), ("0", "1")), rows, labels)
    u_good, _ = split_utility(ds, "f0")
    u_noise, _ = split_utility(ds, "f1")
    assert u_good == pytest.approx(1.0)
    assert u_good > u_noise


# -- best_split -------------------------------------------------------------------------


def test_best_split_respects_example_floor():
    ds = synth.make_xor_dataset(2)  # 8 examples total
    assert best_split(ds, params=NBTreeParams(min_split_examples=30.0)) is None
    assert best_split(ds, params=NBTreeParams(min_split_examples=1.0)) is not None


def test_best_split_none_when_nb_is_good_enough():
    schema = disc_schema(("x", "y"))
    rows = [("x",)] * 20 + [("y",)] * 20
    labels = ["A"] * 20 + ["B"] * 20
    ds = synth.make_dataset(schema, rows, labels)
    # NB alone is perfect here; no split can cut error by 5%
    assert best_split(ds, params=NBTreeParams(min_split_examples=1.0)) is None


def test_best_split_finds_error_halving_attribute():
    ds = synth.make_xor_dataset(25)
    found = best_split(ds, params=NBTreeParams(min_split_examples=1.0))
    assert found is not None
    assert found.attribute in ("a", "b")
    assert found.utility > 0.9


# -- tree construction ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_build_rejects_non_finite_attr_weights(bad):
    ds = synth.make_dataset(disc_schema(("a", "b")), [("a",), ("b",)], ["A", "B"])
    with pytest.raises(ValueError, match="finite"):
        build_nbtree(ds, [bad])


def test_nb_separable_data_yields_single_leaf():
    schema = disc_schema(("x", "y"))
    rows = [("x",)] * 30 + [("y",)] * 30
    labels = ["A"] * 30 + ["B"] * 30
    ds = synth.make_dataset(schema, rows, labels)
    tree = build_nbtree(ds)
    assert tree.root.is_leaf
    np.testing.assert_array_equal(tree.predict_dataset(ds), ds.labels)


def test_no_attributes_yields_prior_leaf():
    ds = synth.make_dataset(Schema((), ("A", "B")), [()] * 4, ["A", "A", "B", "A"])
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert tree.root.is_leaf
    np.testing.assert_array_equal(tree.predict_dataset(ds), [0, 0, 0, 0])


def test_xor_splits_and_reaches_perfect_leaves():
    ds = synth.make_xor_dataset(50)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert not tree.root.is_leaf
    pred = tree.predict_dataset(ds)
    assert (pred == ds.labels).mean() == 1.0


def test_leaf_partitions_cover_training_set():
    ds = synth.make_xor_dataset(30)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert sum(tree.leaf_sizes()) == ds.n


def test_single_leaf_tree_delegates_to_weighted_scores():
    rng = np.random.default_rng(21)
    schema = disc_schema(("x", "y"), ("0", "1"))
    rows = [
        (("x", "y")[int(rng.integers(2))], ("0", "1")[int(rng.integers(2))])
        for _ in range(40)
    ]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(40)]
    ds = synth.make_dataset(schema, rows, labels)
    w = np.array([1.0, 0.2])
    tree = build_nbtree(ds, w, NBTreeParams(max_depth=1))  # force a single leaf
    assert tree.root.is_leaf
    pred = tree.predict_dataset(ds)
    for i in range(ds.n):
        label, probs = classify_nbtree(tree, ds.example(i))
        assert label == tree.classes[pred[i]]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    # the weights decide some rows, so a leaf scored without them shows
    unweighted = dataclasses.replace(tree, attr_weights=np.ones(2)).predict_dataset(ds)
    assert np.any(unweighted != pred)
    direct = fit_naive_bayes(ds, k=1.0)
    np.testing.assert_allclose(
        tree.root.payload.priors, direct.priors, atol=1e-12
    )


def test_unit_weights_reduce_leaf_to_plain_nb():
    rng = np.random.default_rng(27)
    schema = disc_schema(("x", "y"))
    rows = [(("x", "y")[int(rng.integers(2))],) for _ in range(30)]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(30)]
    ds = synth.make_dataset(schema, rows, labels)
    tree = build_nbtree(ds, np.ones(1), NBTreeParams(max_depth=1))
    plain = fit_naive_bayes(ds, k=1.0)
    np.testing.assert_array_equal(
        tree.predict_dataset(ds), plain.predict_dataset(ds)
    )


def test_equal_weights_match_unweighted_reestimation():
    ds = synth.make_xor_dataset(40)  # uniform weights 1/n
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    # on every leaf: plain add-1 count estimates == fitted conditionals
    stack = [(tree.root, np.arange(ds.n))]
    sym_cols = {
        j: np.asarray(spec.domain, dtype=object)[ds.columns[j]]
        for j, spec in enumerate(ds.schema.attributes)
    }
    while stack:
        node, rows = stack.pop()
        if not node.is_leaf:
            j = ds.schema.attribute_index(node.attribute)
            for sym, child in node.children.items():
                stack.append((child, rows[sym_cols[j][rows] == sym]))
            continue
        labels = ds.labels[rows]
        for j, (spec, table) in enumerate(zip(node.payload.schema.attributes, node.payload.cond)):
            V = table.shape[1]
            for ci in range(len(tree.classes)):
                n_c = int(np.count_nonzero(labels == ci))
                for vi, sym in enumerate(spec.domain):
                    n_cv = int(
                        np.count_nonzero((labels == ci) & (sym_cols[j][rows] == sym))
                    )
                    want = (n_cv + 1.0) / (n_c + V)
                    assert table[ci, vi] == pytest.approx(want, abs=1e-9)


def test_leaves_are_the_models_the_split_search_scored():
    ds = synth.make_xor_dataset(30)
    skewed = ds.with_weights(np.linspace(0.5, 1.5, ds.n))
    params = NBTreeParams(min_split_examples=1.0)
    tree = build_nbtree(skewed, params=params)
    assert not tree.root.is_leaf
    # k in units of the training set's mean example weight, at every node
    k = params.smoothing_k * skewed.total_weight / skewed.n
    nodes = list(iter_nodes(tree.root))
    models = [n.payload for n in nodes if n.is_leaf]
    models += [n.fallback_model for n in nodes if n.fallback_model is not None]
    for model in models:
        assert model.smoothing_k == k
    # a leaf whose own rows the perfect check (NB with the build's k) gets
    # all right must classify those rows without error
    domains = [spec.domain for spec in skewed.schema.attributes]
    perfect = 0
    for _, rows in route_rows(tree.root, skewed):
        part = skewed.take(rows)
        examples = [part.example(i) for i in range(part.n)]
        values = [ex.values for ex in examples]
        labels = [ex.label for ex in examples]
        preds = _oracle_nb_predict(values, labels, list(part.weights), values,
                                   tree.classes, domains, k)
        if preds == labels:
            perfect += 1
            np.testing.assert_array_equal(tree.predict_dataset(part), part.labels)
    assert perfect > 0


def test_builds_are_deterministic():
    ds = synth.make_xor_dataset(40)
    t1 = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    t2 = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert t1.dump() == t2.dump()
    assert t1.to_dict() == t2.to_dict()


def test_empty_branch_falls_back_to_parent_model():
    # domain value "2" never occurs; the tree must still answer for it
    schema = Schema(
        (
            AttributeSpec("a", "discrete", ("0", "1", "2")),
            AttributeSpec("b", "discrete", ("0", "1")),
        ),
        ("same", "diff"),
    )
    rows, labels = [], []
    for a in "01":
        for b in "01":
            rows += [(a, b)] * 40
            labels += ["same" if a == b else "diff"] * 40
    ds = synth.make_dataset(schema, rows, labels)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    split_node = tree.root
    assert split_node.attribute == "a"
    assert split_node.empty_branches == ("2",)
    assert split_node.fallback_model is not None
    probe = synth.make_dataset(schema, [("2", "0")], ["same"])
    pred = tree.predict_dataset(probe)
    parent = split_node.fallback_model
    scores = parent.log_scores(parent.encode_dataset(probe), tree.attr_weights)
    assert pred[0] == int(np.argmax(scores[0]))
    # the empty branch and its fallback model survive the model file and the dump
    again = NBTree.from_dict(json.loads(json.dumps(tree.to_dict())))
    assert again.root.empty_branches == ("2",)
    assert again.root.fallback_model.to_dict() == parent.to_dict()
    np.testing.assert_array_equal(again.predict_dataset(probe), pred)
    assert "2 empty branches ['2'] -> parent nb" in tree.dump()


def test_unseen_value_routes_to_heaviest_child():
    ds = synth.make_xor_dataset(50)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert not tree.root.is_leaf
    # a test-time schema whose domain was extended permissively
    wide = Schema(
        (
            AttributeSpec("a", "discrete", ("0", "1", "9")),
            AttributeSpec("b", "discrete", ("0", "1")),
        ),
        ("same", "diff"),
    )
    assert wide.structural_hash() == ds.schema.structural_hash()
    probe = synth.make_dataset(wide, [("9", "1")], ["same"])
    pred = tree.predict_dataset(probe)
    assert pred[0] in (0, 1)
    heavy = tree.root.heaviest_child()
    sub = heavy.payload
    scores = sub.log_scores(sub.encode_dataset(probe), tree.attr_weights)
    assert pred[0] == int(np.argmax(scores[0]))


def test_heaviest_child_tie_survives_reload():
    # children "b" and "a" weigh the same; the saved file lists "a" first
    def schema(domain):
        return Schema((AttributeSpec("s", "discrete", domain),
                       AttributeSpec("t", "discrete", ("0", "1"))), ("P", "Q"))

    rows = [("b", "0")] * 30 + [("b", "1")] * 10 + [("a", "0")] * 30 + [("a", "1")] * 10
    labels = ["P"] * 30 + ["Q"] * 10 + ["Q"] * 30 + ["P"] * 10
    ds = synth.make_dataset(schema(("b", "a")), rows, labels)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    assert tree.root.attribute == "s"
    again = NBTree.from_dict(json.loads(json.dumps(tree.to_dict())))
    probe = synth.make_dataset(schema(("b", "a", "z")), [("z", "0")], ["P"])
    assert tree.predict_dataset(probe)[0] == 1  # the tie goes to "a", where t=0 is Q
    assert again.predict_dataset(probe)[0] == 1


def test_nbtree_json_round_trip():
    ds = synth.make_xor_dataset(30)
    tree = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0))
    text = json.dumps(tree.to_dict(), sort_keys=True, indent=1)
    again = NBTree.from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True, indent=1) == text
    np.testing.assert_array_equal(again.predict_dataset(ds), tree.predict_dataset(ds))


def test_leaf_models_must_list_the_tree_attributes():
    # batch routing reads columns by name, per-example routing by position
    ds = synth.make_xor_dataset(30)
    doc = build_nbtree(ds, params=NBTreeParams(min_split_examples=1.0)).to_dict()
    doc["attributes"].reverse()
    with pytest.raises(DataFormatError, match="attributes"):
        NBTree.from_dict(doc)


def test_scoring_holds_no_code_matrix():
    # 41 attributes over 50,000 rows: one (n, A) int64 code matrix is 16.4 MB
    schema = kdd99_schema()
    n = 50_000
    rng = np.random.default_rng(67)
    columns = [rng.integers(len(a.domain), size=n, dtype=np.int32) if a.is_discrete
               else rng.exponential(100.0, size=n) for a in schema.attributes]
    flag, logged_in = (schema.attribute_index(a) for a in ("flag", "logged_in"))
    labels = (columns[flag] % 2) ^ columns[logged_in]   # XOR: one NB model cannot fit it
    ds = WeightedDataset(schema, columns, labels.astype(np.int64), np.ones(n))
    train = ds.take(np.arange(600))
    tree = build_nbtree(train, params=NBTreeParams(max_depth=2))
    assert not tree.root.is_leaf
    for predict in (fit_naive_bayes(train).predict_dataset, tree.predict_dataset):
        tracemalloc.start()
        try:
            predict(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * schema.n_attributes * 8


# -- the split search against the per-child reference ------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_child_bins_from_node_ranks_equal_bin_columns(data):
    pool = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True))
    n = data.draw(st.integers(1, 30))
    column = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    bins = data.draw(st.integers(1, 12))   # often more bins than distinct values
    node = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    node = node if len(node) else np.arange(n)
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=len(node), max_size=len(node)),
                               max_size=4))
    children = [np.flatnonzero(mask) for mask in masks]
    children += [np.empty(0, dtype=np.int64), np.array([len(node) - 1])]   # 0 and 1 rows
    schema = Schema((AttributeSpec("x", "continuous"),), ("A",))
    ctx = _BuildContext(WeightedDataset(schema, [column], np.zeros(n), np.ones(n)),
                        params=NBTreeParams(bins=bins))
    view = ctx.node_view(node)
    ((distinct, rank),) = view.ranks
    for pos in children:
        got, V, edge_ranks = rank_codes(rank[pos], len(distinct), bins)
        # the quantile reference on the child's own values
        values = column[view.rows[pos]]
        edges = oracles.equal_frequency_edges(values, bins)
        assert np.array_equal(got, oracles.bin_codes(values, edges))
        assert V == len(edges) + 1
        # each edge is the largest value of its bin
        assert np.array_equal([values[got == b].max() for b in range(V - 1)], edges)
        assert np.array_equal(distinct[edge_ranks], edges)


def with_lone_row(ds, rng, uneven):
    """``ds`` plus one row holding a value no other row has (100.0, or the
    symbol left out of training), so every attribute has a one-row
    candidate child. With ``uneven`` weights that row weighs 0.01, less
    than one example's mass; otherwise every row weighs 1.0, exactly one
    example's mass."""
    rows = [ds.example(i).values for i in range(ds.n)]
    rows.append(tuple(a.domain[-1] if a.is_discrete else 100.0 for a in ds.schema.attributes))
    labels = [ds.schema.class_names[c] for c in ds.labels] + [CLASSES[int(rng.integers(3))]]
    weights = [*rng.uniform(0.1, 3.0, size=ds.n), 0.01] if uneven else [1.0] * len(rows)
    return synth.make_dataset(ds.schema, rows, labels, weights)


class _PerChildContext(_BuildContext):
    """A build whose every split decision is the per-child reference's."""

    def best_split(self, view, salt):
        return oracles.best_split(self, oracles.reference_view(self, view.rows), salt)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["discrete", "continuous"]), min_size=1, max_size=3),
    folds=st.integers(2, 9),
    bins=st.integers(1, 12),
    k=st.sampled_from([0.0, 0.5, 1.0]),
    significance=st.sampled_from([0.0, 0.05]),
    uneven=st.booleans(),
)
def test_split_search_equals_per_child_reference(seed, kinds, folds, bins, k, significance,
                                                 uneven):
    rng = np.random.default_rng(seed)
    ds = with_lone_row(random_training(rng, kinds), rng, uneven)
    attr_w = rng.choice([0.0, 0.4, 1.0], size=len(kinds))
    params = NBTreeParams(folds=folds, bins=bins, smoothing_k=k, significance=significance,
                          min_split_examples=1.0, max_depth=4)
    ctx, view, salt = root_search(ds, attr_w, params)
    ref_view = oracles.reference_view(ctx, np.arange(ds.n))
    ref_node_acc = oracles.cv_accuracy(ctx, ref_view, salt)
    for j in range(ds.schema.n_attributes):
        assert (attribute_utility(ctx, view, j, salt)
                == oracles.split_utility_value(ctx, ref_view, j, salt, ref_node_acc))
    assert ctx.best_split(view, salt) == oracles.best_split(ctx, ref_view, salt)
    # and at every node of a build, where rows and path salts vary
    reference = grow_tree(ds, _PerChildContext(ds, attr_w, params).split_of)
    assert node_to_dict(build_nbtree(ds, attr_w, params).root) == node_to_dict(reference)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_best_cuts_equal_row_sorted_reference(data):
    # up to 45 distinct values, so the cuts are often capped; integer
    # weights keep every class mass exact, so the kernel and the reference
    # rank the same masses, and unit weights make entropy ties common
    pool = data.draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1,
                              max_size=45, unique=True))
    n = data.draw(st.integers(1, 120))
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    top = data.draw(st.sampled_from([1, 20]))
    weights = np.array(data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n)),
                       dtype=np.float64)
    n_classes = data.draw(st.integers(2, 3))
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                                         max_size=n)))
    got = best_cuts(*np.unique(values, return_inverse=True), labels, weights, n_classes)
    np.testing.assert_array_equal(got, oracles.best_cuts(values, labels, weights,
                                                         range(n_classes)))
    # the gain tree cuts the column at the first cut of that ranking
    thresholds = oracles.threshold_candidates(values, weights)
    h = oracles.cut_entropy_masses(values, labels, weights, range(n_classes), thresholds)
    first = min(range(len(h)), key=lambda i: (h[i], i), default=None)
    classes = tuple(f"c{k}" for k in range(n_classes))
    ds = synth.make_dataset(Schema((AttributeSpec("x", "continuous"),), classes),
                                   [(v,) for v in values], [classes[k] for k in labels], weights)
    assert (_gain(ds, 0, slice(None), ds.labels, ds.weights)[1]
            == (None if first is None else thresholds[first]))


def test_best_cuts_break_entropy_ties_to_the_lower_cut(monkeypatch):
    # cuts 0.5 and 2.5 leave the same entropy, less than 1.5 leaves
    distinct, rank = np.unique([0.0, 1.0, 2.0, 3.0], return_inverse=True)
    labels = np.array([0, 1, 1, 0])
    for k, want in ((1, [0.5]), (2, [0.5, 2.5]), (3, [0.5, 1.5, 2.5])):
        monkeypatch.setattr(tree, "_BEST_CUTS", k)
        assert list(best_cuts(distinct, rank, labels, np.ones(4), 2)) == want


class _CountingContext(_BuildContext):
    """A build that also counts the children scored for discrete attributes."""

    discrete_children = 0

    def cut_utility(self, view, j, t, salt, node_accuracy):
        before = self.stats["children_scored"]
        found = super().cut_utility(view, j, t, salt, node_accuracy)
        if self.schema.attributes[j].is_discrete:
            self.discrete_children += self.stats["children_scored"] - before
        return found


def test_split_search_scores_only_the_best_cuts(tmp_path, monkeypatch):
    # the train pin's corpus, where every continuous attribute the NB-tree
    # searches has more than _BEST_CUTS cuts at the root; one CPU, so every
    # search calls cut_utility in this process, which counts
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 1)
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    selection, models = train_models(load_dataset(corpus, kdd99_schema(), kdd99_taxonomy()))
    stats = models["proposed-nbtree"].build_stats
    train = selection.reduced   # what train_models builds on
    ctx = _CountingContext(train, selection.weights.as_array(train.schema.attribute_names))
    grow_tree(train, ctx.split_of)
    assert ctx.stats == {key: v for key, v in stats.items() if key != "build_s"}
    continuous = sum(not a.is_discrete for a in train.schema.attributes)
    assert stats["split_searches"] > 0 and continuous > 0
    assert stats["children_scored"] <= (2 * _BEST_CUTS * continuous * stats["split_searches"]
                                        + ctx.discrete_children)


def build_at(ds, attr_w, params, cpus, monkeypatch):
    """``build_nbtree`` with ``cpus`` usable CPUs and every node searched
    in up to that many processes."""
    with monkeypatch.context() as mp:
        mp.setattr(dataset_module, "_usable_cpus", lambda: cpus)
        mp.setattr(nbtree_module, "_SEARCH_ROWS", 0)
        return build_nbtree(ds, attr_w, params)


def counters(tree):
    return {key: v for key, v in tree.build_stats.items() if key not in ("build_s", "processes")}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["discrete", "continuous"]), min_size=1, max_size=4),
    cpus=st.integers(2, 4),
    uneven=st.booleans(),
)
def test_process_count_changes_no_build(seed, kinds, cpus, uneven, monkeypatch):
    rng = np.random.default_rng(seed)
    ds = with_lone_row(random_training(rng, kinds), rng, uneven)
    attr_w = rng.choice([0.0, 0.4, 1.0], size=len(kinds))
    params = NBTreeParams(min_split_examples=1.0, max_depth=4)
    one = build_at(ds, attr_w, params, 1, monkeypatch)
    many = build_at(ds, attr_w, params, cpus, monkeypatch)
    assert many.to_dict() == one.to_dict()
    assert many.dump() == one.dump()
    assert counters(many) == counters(one)
    assert one.build_stats["processes"] == 1 and 1 <= many.build_stats["processes"] <= cpus


def test_default_search_deals_large_nodes_and_keeps_small_ones_here(tmp_path, monkeypatch):
    # the build train_models makes: a root of at least _SEARCH_ROWS rows,
    # and a smaller node below it that is searched too
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.01)
    selection, _ = train_models(load_dataset(corpus, kdd99_schema(), kdd99_taxonomy()),
                                ComparisonConfig(baselines=False))
    ds = selection.reduced
    attr_w = selection.weights.as_array(ds.schema.attribute_names)
    assert ds.n >= nbtree_module._SEARCH_ROWS
    calls, fork_map = [], dataset_module.fork_map

    def counted(what, n, fn, error):
        calls.append(n)
        return fork_map(what, n, fn, error)

    monkeypatch.setattr(dataset_module, "fork_map", counted)
    builds, items = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: cpus)
        calls.clear()
        builds[cpus], items[cpus] = build_nbtree(ds, attr_w), set(calls)
    # at two CPUs some searches are dealt to both, and the others run here
    assert items == {1: {1}, 2: {1, 2}}
    one, two = builds[1], builds[2]
    assert one.build_stats["processes"] == 1 and two.build_stats["processes"] == 2
    assert two.to_dict() == one.to_dict()
    assert two.dump() == one.dump()
    assert counters(two) == counters(one)


def test_no_attributes_deal_no_unit(monkeypatch):
    ds = synth.make_dataset(Schema((), ("A", "B")), [()] * 4, ["A", "A", "B", "A"])
    tree = build_at(ds, None, NBTreeParams(min_split_examples=1.0), 2, monkeypatch)
    assert tree.root.is_leaf and tree.build_stats["processes"] == 1


# -- fit-time codes against score-time codes ----------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fit_codes_equal_score_codes(data):
    # few distinct values: heavy ties, and every edge is a value of the data
    n = data.draw(st.integers(2, 80))
    pool = data.draw(st.lists(st.floats(-50, 50), min_size=1, max_size=5, unique=True))
    columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
               for _ in range(2)]
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    bins = data.draw(st.integers(1, 12))
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("y", "continuous")),
                    ("A", "B"))
    ds = WeightedDataset(schema, columns, labels, np.ones(n))
    fitted = tuple(zip(*(bin_ranks(*rank_column(col), bins) for col in columns)))
    model = fit_naive_bayes(ds, bins=bins)
    checks = [(model, np.arange(n), fitted)]
    params = NBTreeParams(folds=2, bins=bins, min_split_examples=1.0, max_depth=3)
    ctx = _BuildContext(ds, params=params)
    for leaf, rows in route_rows(build_nbtree(ds, params=params).root, ds):
        view = ctx.node_view(rows)   # the leaf's own fit
        checks.append((leaf, rows, (view.codes, view.edges)))
    for model, rows, (codes, edges) in checks:
        assert all(np.array_equal(a, b) for a, b in zip(model.edges, edges))
        assert all(np.array_equal(a, b) for a, b in zip(model.encode_dataset(ds, rows), codes))


# -- parameter ranges --------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda ds: fit_naive_bayes(ds, k=-0.5),
    lambda ds: fit_naive_bayes(ds, k=float("nan")),
    lambda ds: fit_naive_bayes(ds, bins=0),
    lambda ds: fit_naive_bayes(ds, k=float("inf")),
    lambda ds: NBTreeParams(bins=0),
    lambda ds: NBTreeParams(smoothing_k=-1),
    lambda ds: NBTreeParams(smoothing_k=float("inf")),
    lambda ds: NBTreeParams(min_split_examples=-5),
    lambda ds: NBTreeParams(min_split_examples=float("nan")),
    lambda ds: SelectionParams(bins=0),
    lambda ds: SelectionParams(max_depth=0),
    lambda ds: SelectionParams(min_leaf_examples=float("nan")),
], ids=["nb-negative-k", "nb-nan-k", "zero-bins", "nb-inf-k", "tree-zero-bins",
        "tree-negative-k", "tree-inf-k", "tree-negative-min-split", "tree-nan-min-split",
        "weighting-zero-bins", "weighting-zero-depth", "weighting-nan-min-leaf"])
def test_out_of_range_params_raise_value_error(call):
    schema = Schema((AttributeSpec("x", "continuous"),), ("A", "B"))
    ds = synth.make_dataset(schema, [(float(v),) for v in range(6)], ["A", "B"] * 3)
    with pytest.raises(ValueError):
        call(ds)
