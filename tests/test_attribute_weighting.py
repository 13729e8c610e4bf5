import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
import synth
from nbtree_ids.attribute_weighting import (
    DecisionTree,
    SelectionParams,
    _GAIN_TOL,
    _gain,
    build_weighted_tree,
    compute_attribute_weights,
    select_attributes,
    update_example_weights,
)
from nbtree_ids.dataset import AttributeSpec, Schema, WeightedDataset
from nbtree_ids.exceptions import DegenerateTreeError, TrainingError
from nbtree_ids.probability import fit_naive_bayes
from nbtree_ids.tree import TreeNode, split_entropy, threshold_candidates


def disc_schema(*domains, classes=("A", "B")):
    attrs = tuple(
        AttributeSpec(f"f{i}", "discrete", dom) for i, dom in enumerate(domains)
    )
    return Schema(attrs, classes)


def random_gain_dataset(rng, continuous=False):
    n = int(rng.integers(6, 30))
    n_cls = int(rng.integers(2, 4))
    classes = tuple(f"c{k}" for k in range(n_cls))
    attrs = []
    columns = []
    for j in range(int(rng.integers(1, 4))):
        if continuous and rng.random() < 0.5:
            attrs.append(AttributeSpec(f"f{j}", "continuous"))
            columns.append(list(np.round(rng.normal(size=n), 3)))
        else:
            dom = tuple(f"v{k}" for k in range(int(rng.integers(2, 4))))
            attrs.append(AttributeSpec(f"f{j}", "discrete", dom))
            columns.append([dom[int(rng.integers(len(dom)))] for _ in range(n)])
    schema = Schema(tuple(attrs), classes)
    rows = list(zip(*columns))
    labels = [classes[int(rng.integers(n_cls))] for _ in range(n)]
    weights = rng.uniform(0.2, 2.0, size=n)
    return WeightedDataset.from_rows(schema, rows, labels, weights)


def weighted_entropy(ds):
    """The entropy (bits) of the dataset's class mass, as a gain-tree node
    reads it."""
    class_mass = np.bincount(ds.labels, weights=ds.weights, minlength=ds.schema.n_classes)
    return split_entropy(class_mass[None]) / class_mass.sum()


def gain(ds, name):
    """(gain, threshold) of one attribute over every row, as the gain tree
    scores its root."""
    return _gain(ds, ds.schema.attribute_index(name), slice(None), ds.labels, ds.weights)


# -- entropy --------------------------------------------------------------------


def test_entropy_two_equal_classes_is_one_bit():
    ds = WeightedDataset.from_rows(
        disc_schema(("x", "y")), [("x",)] * 4, ["A", "A", "B", "B"]
    )
    assert weighted_entropy(ds) == pytest.approx(1.0)


def test_entropy_single_class_is_zero():
    ds = WeightedDataset.from_rows(disc_schema(("x",)), [("x",)] * 5, ["A"] * 5)
    assert weighted_entropy(ds) == pytest.approx(0.0)


def test_entropy_four_equal_classes_is_two_bits():
    ds = WeightedDataset.from_rows(
        disc_schema(("x",), classes=("A", "B", "C", "D")),
        [("x",)] * 4,
        ["A", "B", "C", "D"],
    )
    assert weighted_entropy(ds) == pytest.approx(2.0)


def test_entropy_bounded_by_log_classes_present():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ds = random_gain_dataset(rng)
        present = len(np.unique(ds.labels))
        assert weighted_entropy(ds) <= math.log2(max(present, 2)) + 1e-12


def test_entropy_zero_weight_errors():
    ds = WeightedDataset(
        disc_schema(("x",)), [np.zeros(0, np.int32)], np.zeros(0, np.int64), np.zeros(0)
    )
    with pytest.raises(TrainingError):
        build_weighted_tree(ds)


# -- information gain --------------------------------------------------------------


def test_gain_of_label_copy_equals_entropy():
    schema = disc_schema(("a", "b"))
    rows = [("a",), ("a",), ("b",), ("b",), ("b",)]
    labels = ["A", "A", "B", "B", "B"]
    ds = WeightedDataset.from_rows(schema, rows, labels, [0.3, 0.1, 0.2, 0.2, 0.2])
    assert gain(ds, "f0")[0] == pytest.approx(weighted_entropy(ds))


def test_gain_of_independent_attribute_is_zero():
    schema = disc_schema(("a", "b"))
    rows = [("a",), ("b",), ("a",), ("b",)]
    labels = ["A", "A", "B", "B"]
    ds = WeightedDataset.from_rows(schema, rows, labels)
    assert gain(ds, "f0")[0] == pytest.approx(0.0, abs=1e-12)


def test_gain_matches_oracle_on_14_example_toy():
    rng = np.random.default_rng(14)
    schema = disc_schema(("a", "b"), ("p", "q", "r"), ("0", "1"))
    rows = [
        (
            ("a", "b")[int(rng.integers(2))],
            ("p", "q", "r")[int(rng.integers(3))],
            ("0", "1")[int(rng.integers(2))],
        )
        for _ in range(14)
    ]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(14)]
    weights = list(rng.uniform(0.1, 1.0, 14))
    ds = WeightedDataset.from_rows(schema, rows, labels, weights)
    for j, name in enumerate(("f0", "f1", "f2")):
        want = oracles.gain_discrete([r[j] for r in rows], labels, weights, ("A", "B"))
        assert gain(ds, name)[0] == pytest.approx(want, abs=1e-9)


def test_continuous_gain_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(6, 30))
        values = list(np.round(rng.normal(size=n), 2))
        labels = [("A", "B")[int(rng.integers(2))] for _ in range(n)]
        weights = list(rng.uniform(0.1, 1.0, n))
        schema = Schema((AttributeSpec("f0", "continuous"),), ("A", "B"))
        ds = WeightedDataset.from_rows(schema, [(v,) for v in values], labels, weights)
        got, got_t = gain(ds, "f0")
        want_gain, want_t = oracles.gain_continuous(values, labels, weights, ("A", "B"))
        assert got == pytest.approx(max(want_gain, 0.0), abs=1e-9)
        if want_gain > 1e-9:
            assert got_t == pytest.approx(want_t)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_mirrored_cuts_tie_to_the_lower_cut(order):
    # cuts 2.0 and 3.5 leave mirrored side masses, {2,4,2 | 3,3,4} and
    # {2,4,4 | 3,3,2} rows, so equal entropies whichever class ids hold
    # them; with 1/n weights the masses are not whole numbers
    counts = {1.0: (2, 4, 2), 3.0: (0, 0, 2), 4.0: (3, 3, 2)}
    classes = ("A", "B", "C")
    values, labels = [], []
    for v, per_class in counts.items():
        for k, count in enumerate(per_class):
            values += [v] * count
            labels += [classes[order[k]]] * count
    schema = Schema((AttributeSpec("x", "continuous"),), classes)
    ds = WeightedDataset.from_rows(schema, [(v,) for v in values], labels)
    got, got_t = gain(ds, "x")
    want, _ = oracles.gain_continuous(values, labels, list(ds.weights), classes)
    assert got_t == 2.0
    assert abs(got - want) <= 1e-12


# no shrink phase: shrinking a column of 33-60 drawn floats takes Hypothesis
# minutes of its own drawing, so a failure reports its example unshrunk
@settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data())
def test_capped_cuts_and_gain_match_row_sorted_reference(data):
    # more than 32 distinct values, so the cuts are capped; integer weights
    # sum exactly in any order, so the cuts must agree to the bit
    distinct = data.draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=33,
                                  max_size=60, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=90))
    values = distinct + repeats
    n = len(values)
    weights = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    heavy = data.draw(st.none() | st.integers(0, n - 1))
    if heavy is not None:   # one row may carry almost all the mass
        weights[heavy] = 10**9
    classes = ("A", "B", "C")[:data.draw(st.integers(2, 3))]
    labels = data.draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))

    want = oracles.threshold_candidates(values, weights)
    got = threshold_candidates(*np.unique(values, return_inverse=True),
                               np.asarray(weights, dtype=np.float64))
    assert want.size <= 32
    np.testing.assert_array_equal(got, want)
    schema = Schema((AttributeSpec("x", "continuous"),), classes)
    ds = WeightedDataset.from_rows(schema, [(v,) for v in values], labels, weights)
    want_gain, _ = oracles.gain_continuous(values, labels, weights, classes, list(want))
    assert abs(gain(ds, "x")[0] - max(want_gain, 0.0)) <= 1e-12


def test_gain_never_negative():
    rng = np.random.default_rng(11)
    for _ in range(30):
        ds = random_gain_dataset(rng, continuous=True)
        for spec in ds.schema.attributes:
            assert gain(ds, spec.name)[0] >= -_GAIN_TOL


def test_constant_attribute_has_zero_gain():
    schema = disc_schema(("only",))
    ds = WeightedDataset.from_rows(schema, [("only",)] * 4, ["A", "B", "A", "B"])
    assert gain(ds, "f0") == (0.0, None)


# -- tree construction ----------------------------------------------------------------


def test_pure_dataset_gives_single_leaf():
    ds = WeightedDataset.from_rows(disc_schema(("x", "y")), [("x",)] * 5, ["A"] * 5)
    tree = build_weighted_tree(ds)
    assert tree.root.is_leaf
    assert tree.root.depth == 1
    assert tree.root.payload == "A"


def test_deciding_attribute_becomes_root():
    schema = disc_schema(("x", "y"), ("p", "q"))
    rows = [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q")] * 3
    labels = (["A", "A", "B", "B"]) * 3
    ds = WeightedDataset.from_rows(schema, rows, labels)
    tree = build_weighted_tree(ds, min_leaf_examples=0.0)
    assert tree.root.attribute == "f0"
    assert all(child.is_leaf for child in tree.root.children.values())
    np.testing.assert_array_equal(tree.predict_dataset(ds), ds.labels)


def test_root_is_oracle_max_gain_attribute():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ds = random_gain_dataset(rng)
        gains = [gain(ds, a.name)[0] for a in ds.schema.attributes]
        if max(gains) <= 1e-12:
            continue
        tree = build_weighted_tree(ds, min_leaf_examples=0.0)
        if tree.root.is_leaf:
            continue
        assert tree.root.attribute == ds.schema.attributes[int(np.argmax(gains))].name


def test_uniform_weights_reproduce_unweighted_id3():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(8, 30))
        domains = [("a", "b"), ("p", "q", "r")]
        rows = [
            (domains[0][int(rng.integers(2))], domains[1][int(rng.integers(3))])
            for _ in range(n)
        ]
        labels = [("A", "B")[int(rng.integers(2))] for _ in range(n)]
        schema = disc_schema(*domains)
        ds = WeightedDataset.from_rows(schema, rows, labels)  # uniform 1/n
        tree = build_weighted_tree(ds, min_leaf_examples=0.0)
        want = oracles.id3_unweighted(rows, labels, ("A", "B"), domains)
        assert oracles.tree_to_tuple(tree.root, schema) == want


def test_max_depth_stops_growth():
    rng = np.random.default_rng(37)
    ds = random_gain_dataset(rng, continuous=True)
    tree = build_weighted_tree(ds, max_depth=1)
    assert tree.root.is_leaf


def test_min_leaf_examples_stops_growth():
    schema = disc_schema(("x", "y"))
    rows = [("x",), ("y",)] * 4
    labels = ["A", "B"] * 4
    ds = WeightedDataset.from_rows(schema, rows, labels)
    tree = build_weighted_tree(ds, min_leaf_examples=10.0)  # above total weight
    assert tree.root.is_leaf


@pytest.mark.parametrize("floor", [-5.0, float("nan")])
def test_bad_min_leaf_examples_raises(floor):
    schema = disc_schema(("x", "y"))
    ds = WeightedDataset.from_rows(schema, [("x",), ("y",)] * 4, ["A", "B"] * 4)
    with pytest.raises(ValueError, match="min_leaf_examples"):
        build_weighted_tree(ds, min_leaf_examples=floor)


def test_tree_json_round_trip():
    rng = np.random.default_rng(43)
    ds = random_gain_dataset(rng, continuous=True)
    tree = build_weighted_tree(ds, min_leaf_examples=0.0)
    text = json.dumps(tree.to_dict(), sort_keys=True, indent=1)
    again = DecisionTree.from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True, indent=1) == text
    np.testing.assert_array_equal(again.predict_dataset(ds), tree.predict_dataset(ds))
    assert again.dump() == tree.dump()


def test_unseen_branch_value_routes_to_heaviest_child():
    schema = disc_schema(("x", "y", "z"))
    rows = [("x",)] * 6 + [("y",)] * 2
    labels = ["A"] * 6 + ["B"] * 2
    ds = WeightedDataset.from_rows(schema, rows, labels)
    tree = build_weighted_tree(ds, min_leaf_examples=0.0)
    assert tree.root.attribute == "f0"
    assert "z" not in tree.root.children
    probe = WeightedDataset.from_rows(schema, [("z",)], ["B"])
    assert tree.predict_dataset(probe)[0] == 0  # heaviest child predicts A


def test_heaviest_child_tie_survives_reload():
    # children "b" and "a" weigh the same; the saved file lists "a" first
    schema = disc_schema(("b", "a", "c"), classes=("P", "Q"))
    rows = [("b",)] * 20 + [("a",)] * 20 + [("c",)]
    labels = ["P"] * 20 + ["Q"] * 20 + ["P"]
    tree = build_weighted_tree(WeightedDataset.from_rows(schema, rows, labels),
                               min_leaf_examples=0.0)
    again = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
    probe = WeightedDataset.from_rows(disc_schema(("b", "a", "c", "z"), classes=("P", "Q")),
                                      [("z",)], ["P"])
    assert tree.predict_dataset(probe)[0] == 1  # the tie goes to "a", which predicts Q
    assert again.predict_dataset(probe)[0] == 1


# -- attribute weights -------------------------------------------------------------------


def test_attribute_weights_from_depths():
    leaf = TreeNode(depth=5, weight=1.0, n=1, payload="A")
    inner4 = TreeNode(depth=4, weight=1.0, n=2, attribute="f1", threshold=0.5,
                      children={"<=": leaf, ">": TreeNode(depth=5, weight=1.0, n=1, payload="B")})
    chain = inner4
    for d in (3, 2):
        chain = TreeNode(depth=d, weight=1.0, n=2, attribute="f2", threshold=float(d),
                         children={"<=": chain,
                                   ">": TreeNode(depth=d + 1, weight=1.0, n=1, payload="B")})
    root = TreeNode(depth=1, weight=1.0, n=4, attribute="f0",
                    children={"x": chain, "y": TreeNode(depth=2, weight=1.0, n=1, payload="A")})
    schema = Schema(
        (
            AttributeSpec("f0", "discrete", ("x", "y")),
            AttributeSpec("f1", "continuous"),
            AttributeSpec("f2", "continuous"),
            AttributeSpec("f3", "continuous"),
        ),
        ("A", "B"),
    )
    tree = DecisionTree("h", ("A", "B"), schema.attribute_names, root)
    aw = compute_attribute_weights(tree, schema)
    weights = aw.as_mapping()
    assert weights["f0"] == pytest.approx(1.0)          # depth 1
    assert weights["f1"] == pytest.approx(0.5)          # depth 4 -> 1/sqrt(4)
    assert weights["f2"] == pytest.approx(1 / math.sqrt(2))
    assert weights["f3"] == 0.0
    assert aw.min_depths == (1, 4, 2, None)


def test_weights_monotone_in_depth():
    rng = np.random.default_rng(53)
    ds = random_gain_dataset(rng, continuous=True)
    tree = build_weighted_tree(ds, min_leaf_examples=0.0)
    aw = compute_attribute_weights(tree, ds.schema)
    pairs = [(d, w) for d, w in zip(aw.min_depths, aw.weights) if d is not None]
    for d1, w1 in pairs:
        for d2, w2 in pairs:
            if d1 < d2:
                assert w1 > w2
    assert all(0 <= w <= 1 for w in aw.weights)


# -- posterior weight update ------------------------------------------------------------


def test_update_weights_are_max_posteriors():
    schema = disc_schema(("x", "y"), ("0", "1"))
    rng = np.random.default_rng(61)
    rows = [
        (("x", "y")[int(rng.integers(2))], ("0", "1")[int(rng.integers(2))])
        for _ in range(12)
    ]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(12)]
    ds = WeightedDataset.from_rows(schema, rows, labels)
    model = fit_naive_bayes(ds, k=1.0)
    updated = update_example_weights(ds, model, relabel=True)
    k_eff = 1.0 * ds.total_weight / ds.n
    _, _, posts = oracles.nb_reference(
        rows, labels, list(ds.weights), ("A", "B"), [("x", "y"), ("0", "1")], k_eff
    )
    for i in range(12):
        want = max(posts[i].values())
        assert updated.weights[i] == pytest.approx(want, rel=1e-9)
        assert updated.schema.class_names[updated.labels[i]] == oracles.argmax_class(
            posts[i], ("A", "B")
        )
    np.testing.assert_array_equal(updated.true_labels, ds.labels)


def test_update_weights_separable_k0():
    schema = disc_schema(("x", "y"))
    ds = WeightedDataset.from_rows(
        schema, [("x",)] * 3 + [("y",)] * 3, ["A"] * 3 + ["B"] * 3
    )
    model = fit_naive_bayes(ds, k=0.0)
    updated = update_example_weights(ds, model, relabel=True)
    np.testing.assert_allclose(updated.weights, 1.0, atol=1e-12)
    np.testing.assert_array_equal(updated.labels, ds.labels)


def test_update_without_relabel_keeps_labels():
    rng = np.random.default_rng(67)
    schema = disc_schema(("x", "y"))
    rows = [(("x", "y")[int(rng.integers(2))],) for _ in range(20)]
    labels = [("A", "B")[int(rng.integers(2))] for _ in range(20)]
    ds = WeightedDataset.from_rows(schema, rows, labels)
    model = fit_naive_bayes(ds, k=1.0)
    updated = update_example_weights(ds, model, relabel=False)
    np.testing.assert_array_equal(updated.labels, ds.labels)


# -- the full procedure ---------------------------------------------------------------------


def test_select_attributes_recovers_informative_features():
    ds = synth.make_majority_dataset(seed=1, n=800)
    result = select_attributes(ds, SelectionParams())
    weights = result.weights.as_mapping()
    for name in [f"inf{i}" for i in range(5)]:
        assert weights[name] > 0
    for name in [f"noise{i}" for i in range(5)]:
        assert weights[name] == 0.0
    assert set(result.reduced.schema.attribute_names) == {f"inf{i}" for i in range(5)}
    assert result.reduced.n == ds.n


def test_select_single_attribute_dataset():
    schema = disc_schema(("x", "y"))
    ds = WeightedDataset.from_rows(
        schema, [("x",)] * 5 + [("y",)] * 5, ["A"] * 5 + ["B"] * 5
    )
    result = select_attributes(ds, SelectionParams(min_leaf_examples=0.0))
    assert result.weights.as_mapping() == {"f0": 1.0}
    assert result.reduced.schema.attribute_names == ("f0",)
    assert result.reduced.n == ds.n


def test_select_degenerate_single_class_errors():
    schema = disc_schema(("x", "y"))
    ds = WeightedDataset.from_rows(schema, [("x",), ("y",)] * 3, ["A"] * 6)
    with pytest.raises(DegenerateTreeError):
        select_attributes(ds)


@pytest.mark.parametrize("iterations", [0, -1])
def test_select_rejects_fewer_than_one_pass(iterations):
    ds = synth.make_majority_dataset(seed=1, n=100)
    with pytest.raises(ValueError, match="iterations"):
        select_attributes(ds, SelectionParams(iterations=iterations))


def test_select_is_deterministic():
    ds = synth.make_majority_dataset(seed=5, n=400)
    a = select_attributes(ds, SelectionParams())
    b = select_attributes(ds, SelectionParams())
    assert a.to_dict() == b.to_dict()
    assert a.tree.dump() == b.tree.dump()


def test_selection_report_shape():
    ds = synth.make_majority_dataset(seed=9, n=300)
    result = select_attributes(ds, SelectionParams())
    rows = result.to_dict()["attributes"]
    assert len(rows) == 10
    assert {r["name"] for r in rows} == set(ds.schema.attribute_names)
    text = result.to_text()
    assert "kept" in text and "inf0" in text
