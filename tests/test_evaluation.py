import numpy as np
import pytest

import oracles
import synth
from nbtree_ids import dataset as dataset_module
from nbtree_ids import nbtree as nbtree_module
from nbtree_ids.dataset import (
    AttributeSpec, Schema, load_dataset, project_attributes,
)
from nbtree_ids.evaluation import (
    ComparisonConfig,
    ConfusionMatrix,
    accuracy,
    detection_rate,
    evaluate,
    false_positive_rate,
    normal_false_positive,
    run_comparison,
    train_models,
)
from nbtree_ids.exceptions import EvaluationError
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy
from nbtree_ids.nbtree import NBTreeParams, build_nbtree
from nbtree_ids.attribute_weighting import (
    SelectionParams, build_weighted_tree, update_example_weights,
)
from nbtree_ids.tree import iter_nodes
from nbtree_ids.probability import fit_naive_bayes

CLASSES = ("Normal", "Probe", "DoS")
MODEL_IDS = ("proposed-nbtree", "nb-full", "tree-full", "nb-reduced", "tree-reduced")


def confusion(truth, pred):
    """The confusion matrix of two sequences of class names, counted as
    ``evaluate`` counts them: from class indices."""
    def codes(names):
        return np.array([CLASSES.index(c) for c in names])
    return ConfusionMatrix.from_indices(codes(truth), codes(pred), CLASSES)


# -- confusion matrix -----------------------------------------------------------


def test_confusion_perfect_is_diagonal():
    truth = ["Normal"] * 4 + ["Probe"] * 3 + ["DoS"] * 3
    m = confusion(truth, truth)
    assert np.trace(m.counts) == 10
    assert m.counts.sum() == 10


def test_confusion_all_wrong_has_zero_diagonal():
    truth = ["Normal", "Normal", "Probe", "Probe"]
    pred = ["Probe", "Probe", "Normal", "Normal"]
    m = confusion(truth, pred)
    assert np.trace(m.counts) == 0
    assert m.total == 4


def test_confusion_row_sums_match_truth_counts():
    rng = np.random.default_rng(1)
    truth = [CLASSES[i] for i in rng.integers(0, 3, size=100)]
    pred = [CLASSES[i] for i in rng.integers(0, 3, size=100)]
    m = confusion(truth, pred)
    want = oracles.confusion_counts(truth, pred, CLASSES)
    for ti, t in enumerate(CLASSES):
        assert m.row_sums()[ti] == truth.count(t)
        for pi, p in enumerate(CLASSES):
            assert m.counts[ti, pi] == want[(t, p)]


def test_confusion_accepts_indices():
    m = ConfusionMatrix.from_indices(np.array([0, 1, 2]), np.array([0, 1, 1]), CLASSES)
    assert m.counts[2, 1] == 1


# -- rates ------------------------------------------------------------------------


def test_detection_rate_basic():
    counts = np.array([[99, 1, 0], [0, 10, 0], [0, 0, 5]])
    m = ConfusionMatrix(CLASSES, counts)
    assert detection_rate(m, "Normal") == pytest.approx(99.0)
    assert detection_rate(m, "Probe") == pytest.approx(100.0)


def test_detection_rate_undefined_for_empty_class():
    counts = np.array([[5, 0, 0], [0, 0, 0], [0, 0, 5]])
    m = ConfusionMatrix(CLASSES, counts)
    assert detection_rate(m, "Probe") is None


def test_false_positive_rate_extremes():
    clean = ConfusionMatrix(CLASSES, np.array([[5, 0, 0], [0, 5, 0], [0, 0, 5]]))
    assert false_positive_rate(clean, "Normal") == pytest.approx(0.0)
    all_in = ConfusionMatrix(CLASSES, np.array([[5, 0, 0], [5, 0, 0], [5, 0, 0]]))
    assert false_positive_rate(all_in, "Normal") == pytest.approx(100.0)


def test_false_positive_rate_matches_counting_oracle():
    rng = np.random.default_rng(3)
    truth = [CLASSES[i] for i in rng.integers(0, 3, size=60)]
    pred = [CLASSES[i] for i in rng.integers(0, 3, size=60)]
    m = confusion(truth, pred)
    counts = oracles.confusion_counts(truth, pred, CLASSES)
    for c in CLASSES:
        assert false_positive_rate(m, c) == pytest.approx(
            oracles.fp_rate(counts, CLASSES, c)
        )


def test_normal_fp_literal_reading():
    counts = np.array([[90, 6, 4], [0, 10, 0], [0, 0, 5]])
    m = ConfusionMatrix(CLASSES, counts)
    assert normal_false_positive(m, "Normal") == pytest.approx(10.0)


def test_accuracy_is_support_weighted_mean_of_dr():
    rng = np.random.default_rng(5)
    for _ in range(10):
        counts = rng.integers(0, 30, size=(3, 3))
        m = ConfusionMatrix(CLASSES, counts)
        if m.total == 0:
            continue
        acc = accuracy(m)
        weighted = 0.0
        for i, c in enumerate(CLASSES):
            dr = detection_rate(m, c)
            if dr is not None:
                weighted += dr / 100.0 * m.row_sums()[i]
        assert acc == pytest.approx(weighted / m.total)


# -- evaluate -----------------------------------------------------------------------


def toy_train_test():
    schema = Schema(
        (AttributeSpec("f0", "discrete", ("x", "y", "z")),),
        ("Normal", "Probe", "DoS"),
    )
    rows = [("x",)] * 10 + [("y",)] * 10 + [("z",)] * 10
    labels = ["Normal"] * 10 + ["Probe"] * 10 + ["DoS"] * 10
    return synth.make_dataset(schema, rows, labels)


def test_evaluate_perfect_model():
    ds = toy_train_test()
    model = fit_naive_bayes(ds, k=1.0)
    report = evaluate(model, ds, model_id="nb")
    for row in report.per_class:
        assert row["dr"] == pytest.approx(100.0)
        assert row["fp"] == pytest.approx(0.0)
    assert report.accuracy == pytest.approx(1.0)
    assert report.normal_fp == pytest.approx(0.0)
    assert report.model_id == "nb"
    assert report.attribute_count == 1


def test_evaluate_rejects_schema_mismatch():
    ds = toy_train_test()
    other = Schema(
        (AttributeSpec("different", "discrete", ("x",)),), ("Normal", "Probe", "DoS")
    )
    probe = synth.make_dataset(other, [("x",)], ["Normal"])
    model = fit_naive_bayes(ds, k=1.0)
    with pytest.raises(EvaluationError, match="schema"):
        evaluate(model, probe)


def test_evaluate_is_pure_apart_from_timing():
    ds = toy_train_test()
    model = fit_naive_bayes(ds, k=1.0)
    a = evaluate(model, ds).to_dict()
    b = evaluate(model, ds).to_dict()
    a.pop("wall_clock_sec")
    b.pop("wall_clock_sec")
    assert a == b


def test_report_text_marks_undefined_rates():
    ds = toy_train_test()
    model = fit_naive_bayes(ds, k=1.0)
    # drop every DoS example from the test set: its DR must render as n/a
    keep = np.flatnonzero(ds.labels != 2)
    report = evaluate(model, ds.take(keep))
    assert detection_rate(report.matrix, "DoS") is None
    assert [row["dr"] for row in report.per_class if row["class"] == "DoS"] == [None]
    assert "n/a" in report.to_text()


# -- run_comparison -------------------------------------------------------------------


def comparison_dataset(n_per_class=40):
    schema = Schema(
        (
            AttributeSpec("f0", "discrete", ("x", "y", "z")),
            AttributeSpec("f1", "continuous"),
            AttributeSpec("f2", "discrete", ("0", "1")),
        ),
        ("Normal", "Probe", "DoS"),
    )
    rng = np.random.default_rng(11)
    rows, labels = [], []
    for ci, (sym, cls) in enumerate(zip("xyz", ("Normal", "Probe", "DoS"))):
        for _ in range(n_per_class):
            rows.append((sym, float(rng.normal(ci, 0.1)), ("0", "1")[int(rng.integers(2))]))
            labels.append(cls)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    labels = [labels[i] for i in order]
    return synth.make_dataset(schema, rows, labels)


def comparison_config():
    return ComparisonConfig(
        selection=SelectionParams(min_leaf_examples=0.0),
        nbtree=NBTreeParams(min_split_examples=1.0),
    )


def test_comparison_on_fully_determined_data():
    ds = comparison_dataset()
    bundle = run_comparison(ds, ds, comparison_config())
    assert len(bundle.reports) == 5
    assert [r.model_id for r in bundle.reports] == [
        "proposed-nbtree", "nb-full", "tree-full", "nb-reduced", "tree-reduced",
    ]
    for report in bundle.reports:
        for row in report.per_class:
            assert row["dr"] == pytest.approx(100.0)


def test_comparison_without_baselines():
    ds = comparison_dataset()
    config = comparison_config()
    config.baselines = False
    bundle = run_comparison(ds, ds, config)
    assert len(bundle.reports) == 1
    assert bundle.reports[0].model_id == "proposed-nbtree"


def test_comparison_reports_have_uniform_structure():
    ds = comparison_dataset()
    bundle = run_comparison(ds, ds, comparison_config())
    keys = [tuple(sorted(r.to_dict())) for r in bundle.reports]
    assert len(set(keys)) == 1
    reports = {r.model_id: r for r in bundle.reports}
    full, reduced = reports["nb-full"], reports["nb-reduced"]
    assert full.attribute_count == 3
    assert reduced.attribute_count == len(bundle.kept_attributes)


def test_baseline_trees_follow_selection_params():
    ds = synth.make_majority_dataset(seed=5, n=300)
    selection, models = train_models(ds, ComparisonConfig(selection=SelectionParams(max_depth=2)))
    reduced = project_attributes(ds, selection.weights.kept_names())
    for mid, plain in (("tree-full", ds), ("tree-reduced", reduced)):
        tree = models[mid]
        assert max(node.depth for node in iter_nodes(tree.root)) <= 2
        assert tree.dump() == build_weighted_tree(plain, max_depth=2).dump()


def test_process_count_changes_no_model(tmp_path, monkeypatch):
    # one CPU trains all five in this process; two fit the full baselines
    # in a forked process and search every node in two
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    train = load_dataset(corpus, kdd99_schema(), kdd99_taxonomy())
    monkeypatch.setattr(nbtree_module, "_SEARCH_ROWS", 0)
    documents, seconds = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(dataset_module, "_usable_cpus", lambda cpus=cpus: cpus)
        seconds[cpus] = {}
        selection, models = train_models(train, seconds=seconds[cpus])
        stats = dict(models["proposed-nbtree"].build_stats)
        assert stats.pop("processes") == cpus and stats.pop("build_s") > 0
        documents[cpus] = (selection.to_dict(), stats, models["proposed-nbtree"].dump(),
                           [(mid, m.to_dict()) for mid, m in models.items()])
    assert documents[2] == documents[1] and documents[1][1]["split_searches"] > 0
    assert [mid for mid, _ in documents[1][3]] == list(MODEL_IDS)
    assert list(seconds[2]) == list(seconds[1]) == list(MODEL_IDS[1:])


def test_proposed_nbtree_trains_on_posterior_weights_and_load_time_labels():
    # a set on which the weighting pass relabels rows, and on which the tree
    # differs if built on uniform weights or on the weighting pass's labels
    ds = synth.make_majority_dataset(seed=3, n=600)
    params = NBTreeParams(min_split_examples=1.0)
    selection, models = train_models(ds, ComparisonConfig(nbtree=params, baselines=False))
    assert selection.relabeled_count > 0
    weights = selection.weights.as_array(selection.weights.kept_names())
    got = models["proposed-nbtree"].dump()
    assert got == build_nbtree(selection.reduced, weights, params).dump()
    plain, select = ds.with_uniform_weights(), selection.params
    relabeled = update_example_weights(
        plain, fit_naive_bayes(plain, k=select.smoothing_k, bins=select.bins)).labels
    for other in (selection.reduced.with_uniform_weights(),
                  selection.reduced.with_labels(relabeled)):
        assert got != build_nbtree(other, weights, params).dump()


@pytest.mark.parametrize("bend", ["random-weights"])
def test_baselines_train_on_uniform_weights_and_load_time_labels(bend):
    ds = synth.make_majority_dataset(seed=5, n=300)
    bent = ds.with_weights(np.random.default_rng(3).random(ds.n))
    params = SelectionParams(max_depth=4)
    selection, models = train_models(bent, ComparisonConfig(selection=params))
    reduced = project_attributes(ds, selection.weights.kept_names())
    for suffix, plain in (("full", ds), ("reduced", reduced)):
        nb = fit_naive_bayes(plain, k=params.smoothing_k, bins=params.bins)
        tree = build_weighted_tree(plain, max_depth=params.max_depth,
                                   min_leaf_examples=params.min_leaf_examples)
        for mid, expected in ((f"nb-{suffix}", nb), (f"tree-{suffix}", tree)):
            expected.model_id = mid
            assert models[mid].to_dict() == expected.to_dict()
