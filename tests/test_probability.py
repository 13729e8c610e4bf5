import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from nbtree_ids.dataset import (
    AttributeSpec, Schema, WeightedDataset, project_attributes, stratified_sample,
    stratified_split,
)
from nbtree_ids.exceptions import TrainingError
from nbtree_ids.nbtree import build_nbtree
from nbtree_ids.probability import (
    NaiveBayesModel,
    bin_codes,
    bin_ranks,
    classify_nb,
    column_ranks,
    fit_codes,
    fit_naive_bayes,
    rank_column,
    subset_ranks,
)


def schema_ab(*attr_domains, classes=("A", "B")):
    attrs = tuple(
        AttributeSpec(f"f{i}", "discrete", dom) for i, dom in enumerate(attr_domains)
    )
    return Schema(attrs, classes)


def random_discrete_dataset(rng, n_max=30, a_max=4, c_max=3, random_weights=False):
    n = int(rng.integers(4, n_max + 1))
    n_attr = int(rng.integers(1, a_max + 1))
    n_cls = int(rng.integers(2, c_max + 1))
    domains = tuple(
        tuple(f"v{k}" for k in range(int(rng.integers(2, 4)))) for _ in range(n_attr)
    )
    classes = tuple(f"c{k}" for k in range(n_cls))
    schema = schema_ab(*domains, classes=classes)
    rows = [
        tuple(dom[int(rng.integers(len(dom)))] for dom in domains) for _ in range(n)
    ]
    labels = [classes[int(rng.integers(n_cls))] for _ in range(n)]
    # every class must appear so k=0 stays usable
    for k, c in enumerate(classes):
        labels[k % n] = c
    weights = rng.uniform(0.5, 1.5, size=n) if random_weights else None
    ds = synth.make_dataset(schema, rows, labels, weights)
    return ds, rows, labels, domains, classes


def fit_absolute_k(ds, k, bins=10):
    """The one fit with k in absolute weight units."""
    binned = [(col, np.empty(0)) if spec.is_discrete else bin_ranks(*column_ranks(ds, j), bins)
              for j, (spec, col) in enumerate(zip(ds.schema.attributes, ds.columns))]
    return fit_codes(ds.schema, [code for code, _ in binned], [e for _, e in binned],
                     ds.labels, ds.weights, k)


# -- priors ------------------------------------------------------------------------


def test_priors_symmetric():
    ds = synth.make_dataset(
        schema_ab(("x", "y")), [("x",)] * 4, ["A", "A", "B", "B"]
    )
    priors = fit_absolute_k(ds, k=0.0).priors
    assert priors[0] == pytest.approx(0.5)
    assert priors[1] == pytest.approx(0.5)


def test_priors_follow_weights():
    ds = synth.make_dataset(
        schema_ab(("x", "y")), [("x",)] * 4, ["A", "A", "B", "B"],
        weights=[0.6, 0.2, 0.1, 0.1],
    )
    priors = fit_absolute_k(ds, k=0.0).priors
    assert priors[0] == pytest.approx(0.8)


def test_priors_scale_invariant():
    rng = np.random.default_rng(0)
    ds, *_ = random_discrete_dataset(rng, random_weights=True)
    p1 = fit_absolute_k(ds, k=0.0).priors
    p2 = fit_absolute_k(ds.with_weights(ds.weights * 7.0), k=0.0).priors
    np.testing.assert_allclose(p1, p2, rtol=1e-12)


def test_priors_zero_total_weight_errors():
    ds = WeightedDataset(
        schema_ab(("x", "y")),
        [np.zeros(0, np.int32)], np.zeros(0, np.int64), np.zeros(0),
    )
    with pytest.raises(TrainingError):
        fit_naive_bayes(ds)


def test_priors_smoothed_only_when_class_missing():
    ds = synth.make_dataset(schema_ab(("x",)), [("x",)] * 3, ["A"] * 3)
    priors = fit_absolute_k(ds, k=1.0).priors  # class B absent -> smoothing kicks in
    assert 0 < priors[1] < priors[0] < 1
    assert priors.sum() == pytest.approx(1.0)


# -- conditionals ---------------------------------------------------------------------


def test_conditionals_pure_column_k0():
    schema = Schema((AttributeSpec("f0", "discrete", ("0", "1")),), ("A",))
    ds = synth.make_dataset(schema, [("1",)] * 4, ["A"] * 4)
    table = fit_absolute_k(ds, k=0.0).cond[0]
    assert table[0, 1] == pytest.approx(1.0)
    assert table[0, 0] == pytest.approx(0.0)


def test_conditionals_add_k_exact_value():
    # class weight 1.0, V=2, k=1: (1 + 1) / (1 + 2) = 2/3
    schema = Schema((AttributeSpec("f0", "discrete", ("0", "1")),), ("A",))
    ds = synth.make_dataset(schema, [("1",)] * 4, ["A"] * 4)  # weights 0.25
    assert ds.total_weight == pytest.approx(1.0)
    assert fit_absolute_k(ds, k=1.0).cond[0][0, 1] == pytest.approx(2.0 / 3.0)


def test_conditionals_match_counting_oracle():
    schema = schema_ab(("x", "y"), ("0", "1"))
    rows = [("x", "0"), ("x", "1"), ("y", "1"), ("y", "0"), ("x", "0"), ("y", "1")]
    labels = ["A", "A", "B", "B", "A", "B"]
    weights = [0.3, 0.1, 0.25, 0.05, 0.2, 0.1]
    ds = synth.make_dataset(schema, rows, labels, weights)
    for k in (0.0, 1.0, 0.5):
        model = fit_absolute_k(ds, k=k)
        _, tables, _ = oracles.nb_reference(
            rows, labels, weights, ("A", "B"), [("x", "y"), ("0", "1")], k
        )
        for j, (spec, table) in enumerate(zip(schema.attributes, model.cond)):
            for ci, c in enumerate(("A", "B")):
                for vi, v in enumerate(spec.domain):
                    assert table[ci, vi] == pytest.approx(
                        tables[j][(c, v)], rel=1e-12
                    )


def test_conditionals_zero_weight_class_k0_errors():
    ds = synth.make_dataset(schema_ab(("x",)), [("x",)] * 3, ["A"] * 3)
    with pytest.raises(TrainingError, match="zero weight"):
        fit_naive_bayes(ds, k=0.0)


def test_conditional_rows_sum_to_one_and_avoid_extremes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds, *_ = random_discrete_dataset(rng, random_weights=True)
        for table in fit_absolute_k(ds, k=1.0).cond:
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
            if table.shape[1] > 1:
                assert np.all(table > 0)
                assert np.all(table < 1)


# -- binning ----------------------------------------------------------------------------


def assert_bins_equal_reference(values, bins):
    """``bin_ranks`` of the column's ``rank_column`` against the
    ``np.quantile`` reference; returns its codes and edges."""
    distinct, rank = rank_column(values)
    codes, edges = bin_ranks(distinct, rank, bins)
    want = oracles.equal_frequency_edges(values, bins)
    assert np.array_equal(edges, want)
    assert np.array_equal(codes, oracles.bin_codes(values, want))
    assert codes.dtype == np.int32
    assert np.array_equal(distinct[rank], values)
    return codes, edges


def test_equal_frequency_edges_basic():
    values = np.arange(100, dtype=float)
    edges = oracles.equal_frequency_edges(values, 4)
    assert len(edges) == 3
    codes = oracles.bin_codes(values, edges)
    counts = np.bincount(codes)
    assert counts.min() >= 24 and counts.max() <= 26
    assert_bins_equal_reference(values, 4)


def test_equal_frequency_edges_heavy_ties():
    values = np.array([0.0] * 90 + [1.0, 2.0, 3.0] * 3 + [5.0])
    edges = oracles.equal_frequency_edges(values, 10)
    assert len(edges) >= 1
    assert len(np.unique(edges)) == len(edges)
    codes = oracles.bin_codes(values, edges)
    assert codes.max() == len(edges)
    assert_bins_equal_reference(values, 10)


def test_constant_column_is_single_bin():
    edges = oracles.equal_frequency_edges(np.full(50, 3.25), 10)
    assert len(edges) == 0
    assert np.all(oracles.bin_codes(np.full(50, 3.25), edges) == 0)
    assert_bins_equal_reference(np.full(50, 3.25), 10)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from([-2.5, 0.0, 1.0, 7.0]),
                              st.floats(-1e6, 1e6, allow_subnormal=False)), max_size=60),
    bins=st.integers(1, 12),   # often more bins than distinct values
)
@example(values=[], bins=4)              # an empty column
@example(values=[3.0], bins=12)          # one row
@example(values=[1.5] * 40, bins=10)     # a constant column
def test_bin_column_equals_quantile_reference(values, bins):
    assert_bins_equal_reference(np.array(values, dtype=np.float64), bins)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_bin_codes_equal_searchsorted(data):
    """``bin_codes`` equals ``np.searchsorted(edges, v, side="left")`` for
    0 to 12 strictly increasing edges, on values that hit the edges, NaN,
    the infinities and both zeros."""
    if data is None:   # a zero edge of either sign, and every special value
        edges, values = np.array([-0.0, 1.0]), np.array(_SPECIAL + [1.0, 0.5, -1.0])
    else:
        finite = st.floats(-1e6, 1e6, allow_subnormal=False)
        drawn = data.draw(st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0])),
                                   max_size=12), label="edges")
        edges = np.unique(np.array(drawn, dtype=np.float64))   # strictly increasing
        values = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from(_SPECIAL + edges.tolist()), finite), max_size=40), label="values"),
            dtype=np.float64)
    got = bin_codes(values, edges)
    assert got.tolist() == np.searchsorted(edges, values, side="left").tolist()


# -- the one sort of a column and its subsets ---------------------------------------------

# zeros of both signs, the smallest subnormals, and floats adjacent to 1 and to each other
_NEAR = [-0.0, 0.0, 5e-324, -5e-324, 1.0, float(np.nextafter(1.0, 2.0)),
         float(np.nextafter(1.0, 0.0)), -1.0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_subset_ranks_equal_unique_of_the_rows(data):
    """``subset_ranks`` of any rows (in any order, repeats allowed) equals
    ``np.unique`` of those rows, on columns whose distinct counts cross
    both narrow rank dtypes."""
    if data is None:   # both zeros, the subset holding only -0.0
        column, rows = np.array([0.0, -0.0, 1.0, -0.0]), np.array([3, 1])
    elif data.draw(st.booleans(), label="wide"):
        U = data.draw(st.sampled_from([255, 256, 257, 65535, 65536, 65537]), label="distinct")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = np.arange(U) - U // 2 + rng.choice([0.0, 0.5])   # holds 0 or 0.5 apart
        column = rng.permutation(np.concatenate([values, rng.choice(values, size=U // 3)]))
        column[column == 0] = rng.choice([-0.0, 0.0], size=np.count_nonzero(column == 0))
        rows = rng.choice(len(column), size=int(rng.integers(0, 2 * len(column))))
        if rng.random() < 0.5:
            rows = np.unique(rows)
    else:
        column = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(_NEAR), st.floats(allow_nan=False, allow_infinity=False)),
            max_size=80), label="column"), dtype=np.float64)
        rows = np.array(data.draw(st.lists(st.integers(0, max(len(column) - 1, 0)),
                                           max_size=len(column) and 100), label="rows"),
                        dtype=np.intp)
    distinct, rank = rank_column(column)
    U = len(distinct)
    assert rank.dtype == np.dtype(np.uint8 if U <= 256 else np.uint16 if U <= 65536
                                  else np.uint32)
    assert np.array_equal(distinct[rank], column)
    for part in (rows, slice(None)):
        got_distinct, got_rank = subset_ranks(distinct, rank, part)
        want_distinct, want_rank = oracles.unique_ranks(column[part])
        assert np.array_equal(got_distinct, want_distinct)
        assert not np.signbit(got_distinct[got_distinct == 0]).any()
        assert got_rank.dtype == np.intp
        assert np.array_equal(got_rank, want_rank)


@pytest.mark.parametrize("zeros", ["negative", "positive", "mixed"])
def test_edges_and_cuts_at_zero_are_positive_zero(zeros):
    """A bin edge at zero, of a fit or of any NB-tree node, and a gain-tree
    cut at zero are ``+0.0`` whichever zeros the column holds."""
    from nbtree_ids.attribute_weighting import _gain, build_weighted_tree
    from nbtree_ids.nbtree import NBTreeParams
    from nbtree_ids.tree import iter_nodes

    rng = np.random.default_rng(5)
    n = 60
    signs = {"negative": [-0.0], "positive": [0.0], "mixed": [-0.0, 0.0]}[zeros]
    # a third each of -1, zero and 1: the 3-bin edges are -1 and 0
    x = np.repeat([-1.0, 0.0, 1.0], n // 3)
    x[x == 0] = rng.choice(signs, size=n // 3)
    # y cuts at zero, between -1 and 1; labels follow x's zeros and y's sign
    y = rng.choice([-1.0, 1.0], size=n)
    labels = ((x == 0) ^ (y > 0)).astype(np.int64)
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("y", "continuous")),
                    ("A", "B"))
    ds = WeightedDataset(schema, [x, y], labels, np.ones(n))
    edges = [e for e in fit_naive_bayes(ds, bins=3).edges]
    nbtree = build_nbtree(ds, params=NBTreeParams(bins=3, folds=2, min_split_examples=1.0))
    for node in iter_nodes(nbtree.root):
        if node.is_leaf:
            edges.extend(node.payload.edges)
    assert any(np.any(e == 0) for e in edges)
    for e in edges:
        assert not np.signbit(e[e == 0]).any()
    cuts = [_gain(ds, 1, slice(None), ds.labels, ds.weights)[1]]
    cuts += [node.threshold for node in iter_nodes(build_weighted_tree(ds).root)
             if node.threshold is not None]
    assert 0.0 in cuts
    assert not any(np.signbit(c) for c in cuts if c == 0)


def test_each_column_is_ranked_once_and_shared_only_where_kept():
    """A continuous column is sorted on first use; a dataset derived with
    the column shares that sort, and a ``take``, sample or split starts
    with none."""
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("s", "discrete", ("a", "b")),
                     AttributeSpec("y", "continuous")), ("A", "B"))
    rows = [(float(i % 7), "ab"[i % 2], float(i % 5)) for i in range(40)]
    ds = synth.make_dataset(schema, rows, ["AB"[i % 2] for i in range(40)])
    ranked = column_ranks(ds, 0)
    assert column_ranks(ds, 0) is ranked
    for derived in (ds.with_weights(np.full(40, 2.0)), ds.with_labels(np.zeros(40, int)),
                    ds.with_uniform_weights()):
        assert column_ranks(derived, 0) is ranked
    assert not ds.rank_memo[2]   # not yet asked for
    projected = project_attributes(ds, ["y", "x"])
    assert column_ranks(projected, 0) is ranked
    assert column_ranks(projected, 1) is column_ranks(ds, 2)
    for fresh in (ds.take(np.arange(40)), stratified_sample(ds, 0.5, 1),
                  *stratified_split(ds, 0.5, 1)):
        assert not any(fresh.rank_memo)


# -- posterior / classify ------------------------------------------------------------------


def test_posterior_uniform_under_symmetry():
    schema = schema_ab(("x", "y"))
    ds = synth.make_dataset(
        schema, [("x",), ("y",), ("x",), ("y",)], ["A", "A", "B", "B"]
    )
    model = fit_naive_bayes(ds, k=1.0)
    np.testing.assert_allclose(model.posteriors_dataset(ds), 0.5, atol=1e-12)


def test_posterior_equals_priors_with_no_attributes():
    schema = Schema((), ("A", "B"))
    ds = WeightedDataset(
        schema, [], np.array([0] * 9 + [1]), np.full(10, 0.1),
    )
    model = fit_naive_bayes(ds, k=1.0)
    np.testing.assert_allclose(model.posteriors_dataset(ds), [[0.9, 0.1]] * 10, atol=1e-12)


def test_posterior_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ds, rows, labels, domains, classes = random_discrete_dataset(
            rng, random_weights=True
        )
        model = fit_naive_bayes(ds, k=1.0)
        k_eff = 1.0 * ds.total_weight / ds.n
        _, _, posts = oracles.nb_reference(
            rows, labels, list(ds.weights), classes, domains, k_eff
        )
        got = model.posteriors_dataset(ds)
        for i in range(ds.n):
            want = np.array([posts[i][c] for c in classes])
            np.testing.assert_allclose(got[i], want, rtol=1e-9)
            assert got[i].sum() == pytest.approx(1.0, abs=1e-9)


def test_posterior_k0_all_zero_vector_errors():
    schema = schema_ab(("x", "y"))
    # value "y" never seen: with k=0 every class gets probability 0
    ds = synth.make_dataset(schema, [("x",), ("x",)], ["A", "B"])
    model = fit_naive_bayes(ds, k=0.0)
    probe = synth.make_dataset(schema, [("y",)], ["A"])
    with pytest.raises(TrainingError, match="zero"):
        model.posteriors_dataset(probe)


def test_classify_argmax_and_tie_break():
    schema = schema_ab(("x", "y"))
    ds = synth.make_dataset(
        schema, [("x",), ("x",), ("y",), ("y",)], ["A", "A", "B", "B"]
    )
    model = fit_naive_bayes(ds, k=1.0)
    assert classify_nb(ds.example(0), model) == "A"
    # exact tie: symmetric data makes both classes score identically
    sym = synth.make_dataset(
        schema, [("x",), ("y",), ("x",), ("y",)], ["A", "A", "B", "B"]
    )
    tied = fit_naive_bayes(sym, k=1.0)
    assert classify_nb(sym.example(0), tied) == "A"  # first class in order wins


def test_classify_matches_oracle_argmax():
    rng = np.random.default_rng(23)
    ds, rows, labels, domains, classes = random_discrete_dataset(rng, n_max=20)
    model = fit_naive_bayes(ds, k=1.0)
    k_eff = 1.0 * ds.total_weight / ds.n
    priors, tables, _ = oracles.nb_reference(
        rows, labels, list(ds.weights), classes, domains, k_eff
    )
    for i, row in enumerate(rows):
        scores = oracles.nb_joint_scores(row, priors, tables, classes)
        assert classify_nb(ds.example(i), model) == oracles.argmax_class(scores, classes)


def test_log_and_direct_product_agree():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ds, rows, labels, domains, classes = random_discrete_dataset(rng)
        model = fit_naive_bayes(ds, k=1.0)
        k_eff = 1.0 * ds.total_weight / ds.n
        priors, tables, _ = oracles.nb_reference(
            rows, labels, list(ds.weights), classes, domains, k_eff
        )
        for i, row in enumerate(rows):
            direct = oracles.nb_joint_scores(row, priors, tables, classes)
            codes = model.encode_example(ds.example(i))
            logs = model.log_scores(codes[:, None])[0]
            for ci, c in enumerate(classes):
                assert math.exp(logs[ci]) == pytest.approx(direct[c], rel=1e-9)


# -- weighted scores -------------------------------------------------------------------------


def weighted_scores(model, ds, attr_weights=None):
    """(n, C) log scores of every row of ``ds`` under ``attr_weights``, as
    the NB-tree's leaves score them."""
    return model.log_scores(model.encode_dataset(ds), attr_weights, n=ds.n)


def test_weighted_score_reduces_to_plain_with_unit_weights():
    rng = np.random.default_rng(41)
    ds, *_ = random_discrete_dataset(rng)
    model = fit_naive_bayes(ds, k=1.0)
    ones = np.ones(model.attribute_count)
    weighted = weighted_scores(model, ds, ones)
    for i in range(ds.n):
        plain = model.log_scores(model.encode_example(ds.example(i))[:, None])[0]
        np.testing.assert_allclose(weighted[i], plain, atol=1e-12)


def test_zero_weight_ignores_attribute():
    schema = schema_ab(("x", "y"), ("0", "1"))
    rows = [("x", "0"), ("x", "1"), ("y", "0"), ("y", "1")]
    ds = synth.make_dataset(schema, rows, ["A", "A", "B", "B"])
    model = fit_naive_bayes(ds, k=1.0)
    from nbtree_ids.dataset import project_attributes

    reduced = project_attributes(ds, ["f1"])
    reduced_model = fit_naive_bayes(reduced, k=1.0)
    full = weighted_scores(model, ds, np.array([0.0, 1.0]))
    red = weighted_scores(reduced_model, reduced, np.array([1.0]))
    np.testing.assert_allclose(full, red, atol=1e-12)


def test_weighted_score_hand_computed():
    schema = schema_ab(("x", "y"), ("0", "1"))
    rows = [("x", "0"), ("x", "1"), ("y", "0"), ("y", "1"), ("x", "0")]
    labels = ["A", "A", "B", "B", "B"]
    ds = synth.make_dataset(schema, rows, labels)
    model = fit_naive_bayes(ds, k=1.0)
    w = np.array([0.5, 1.0])
    scores = weighted_scores(model, ds, w)
    for i in (0, 3):
        got = scores[i]
        codes = model.encode_example(ds.example(i))
        for ci in range(2):
            expected = math.log(model.priors[ci])
            expected += 0.5 * math.log(model.cond[0][ci, codes[0]])
            expected += 1.0 * math.log(model.cond[1][ci, codes[1]])
            assert got[ci] == pytest.approx(expected, rel=1e-12)


def test_weighted_score_rejects_negative_weight():
    rng = np.random.default_rng(47)
    ds, *_ = random_discrete_dataset(rng)
    with pytest.raises(ValueError):
        build_nbtree(ds, np.full(ds.schema.n_attributes, -0.1))


def test_argmax_invariant_under_normalisation():
    rng = np.random.default_rng(53)
    for _ in range(10):
        ds, *_ = random_discrete_dataset(rng, random_weights=True)
        model = fit_naive_bayes(ds, k=1.0)
        raw = weighted_scores(model, ds, np.ones(model.attribute_count))
        norm = model.posteriors_dataset(ds)
        for i in range(ds.n):
            assert int(np.argmax(raw[i])) == int(np.argmax(norm[i]))
            assert norm[i].sum() == pytest.approx(1.0, abs=1e-9)


def test_unseen_symbol_scores_the_smoothing_floor():
    schema = schema_ab(("x", "y"), ("0", "1"))
    rows = [("x", "0"), ("x", "1"), ("y", "0"), ("y", "1"), ("x", "0")]
    ds = synth.make_dataset(schema, rows, ["A", "A", "B", "B", "B"])
    model = fit_naive_bayes(ds, k=1.0)
    # k = 1/5 in mass units: floor = k / (class mass + k*V), V = 2
    floor = model.smoothing_k / (model.class_weights + 2 * model.smoothing_k)
    np.testing.assert_allclose(floor, [0.2 / (0.4 + 0.4), 0.2 / (0.6 + 0.4)], rtol=1e-12)
    # a permissively extended domain: "z" was never seen and encodes as -1
    wide = schema_ab(("x", "y", "z"), ("0", "1"))
    assert wide.structural_hash() == schema.structural_hash()
    probe = synth.make_dataset(wide, [("z", "1")], ["A"])
    codes = list(model.encode_dataset(probe))
    assert [c.tolist() for c in codes] == [[-1], [1]]
    log_prior = np.log(model.priors)
    log_f1 = np.log(model.cond[1][:, 1])
    np.testing.assert_allclose(
        model.log_scores(codes)[0], log_prior + np.log(floor) + log_f1, rtol=1e-12
    )
    w = np.array([0.5, 1.0])
    np.testing.assert_allclose(
        model.log_scores(codes, w)[0], log_prior + 0.5 * np.log(floor) + log_f1, rtol=1e-12
    )
    assert model.classes[model.predict_dataset(probe)[0]] == classify_nb(probe.example(0), model)


# -- serialisation ----------------------------------------------------------------------------


def test_model_json_round_trip_is_bit_stable():
    schema = Schema(
        (
            AttributeSpec("f0", "discrete", ("x", "y")),
            AttributeSpec("f1", "continuous"),
        ),
        ("A", "B"),
    )
    ds = synth.make_dataset(
        schema,
        [("x", 0.5), ("x", 1.5), ("y", 2.5), ("y", 3.5), ("x", 1.0)],
        ["A", "A", "B", "B", "A"],
    )
    model = fit_naive_bayes(ds, k=1.0)
    text = json.dumps(model.to_dict(), sort_keys=True, indent=1)
    again = NaiveBayesModel.from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True, indent=1) == text
    np.testing.assert_array_equal(again.predict_dataset(ds), model.predict_dataset(ds))


def test_batch_predictions_match_per_example():
    rng = np.random.default_rng(61)
    ds, rows, labels, domains, classes = random_discrete_dataset(rng, random_weights=True)
    model = fit_naive_bayes(ds, k=1.0)
    batch = model.predict_dataset(ds)
    for i in range(ds.n):
        assert model.classes[batch[i]] == classify_nb(ds.example(i), model)
    # a permissively widened domain: "new" lies outside the model's domain
    wide = schema_ab(*(dom + ("new",) for dom in domains), classes=classes)
    probe_rows = [tuple("new" if rng.random() < 0.3 else v for v in row) for row in rows]
    probe = synth.make_dataset(wide, probe_rows, labels)
    w = rng.uniform(0.0, 1.0, model.attribute_count)
    w[0] = 0.0
    sub = rng.permutation(probe.n)[: probe.n // 2 + 1]
    scores = model.log_scores(model.encode_dataset(probe, sub), w, len(sub))
    for got, i in zip(scores, sub):
        one = model.log_scores(model.encode_example(probe.example(i))[:, None], w, n=1)[0]
        assert (got == one).all()
