"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines. The desk-scale checks run on the synthetic corpus with
the published 10% composition (the real capture files are not shipped);
point KDD99 tooling at a real file via the CLI for live runs.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import synth
from nbtree_ids.attribute_weighting import (
    SelectionParams,
    _gain,
    select_attributes,
)
from nbtree_ids.cli import main
from nbtree_ids.dataset import AttributeSpec, Schema, project_attributes
from nbtree_ids.nbtree import NBTreeParams, build_nbtree
from nbtree_ids.probability import classify_nb, fit_naive_bayes
from nbtree_ids.tree import split_entropy


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_discrete_dataset(rng, n_max=30, a_max=4, c_max=3):
    n = int(rng.integers(4, n_max + 1))
    n_attr = int(rng.integers(1, a_max + 1))
    n_cls = int(rng.integers(2, c_max + 1))
    domains = tuple(
        tuple(f"v{k}" for k in range(int(rng.integers(2, 4)))) for _ in range(n_attr)
    )
    classes = tuple(f"c{k}" for k in range(n_cls))
    schema = Schema(
        tuple(AttributeSpec(f"f{j}", "discrete", d) for j, d in enumerate(domains)),
        classes,
    )
    rows = [tuple(d[int(rng.integers(len(d)))] for d in domains) for _ in range(n)]
    labels = [classes[int(rng.integers(n_cls))] for _ in range(n)]
    for k, c in enumerate(classes):
        labels[k % n] = c
    weights = rng.uniform(0.5, 1.5, size=n) if rng.random() < 0.5 else None
    ds = synth.make_dataset(schema, rows, labels, weights)
    return ds, rows, labels, domains, classes


def test_criterion_1_nb_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        ds, rows, labels, domains, classes = random_discrete_dataset(rng)
        model = fit_naive_bayes(ds, k=1.0)
        k_eff = ds.total_weight / ds.n
        _, _, posts = oracles.nb_reference(
            rows, labels, list(ds.weights), classes, domains, k_eff
        )
        posteriors = model.posteriors_dataset(ds)
        for i in range(ds.n):
            got = posteriors[i]
            want = np.array([posts[i][c] for c in classes])
            rel = float(np.max(np.abs(got - want) / np.maximum(want, 1e-300)))
            worst = max(worst, rel)
            assert rel <= 1e-9
            assert classify_nb(ds.example(i), model) == oracles.argmax_class(
                posts[i], classes
            )
    elapsed = time.perf_counter() - start
    report(
        "nb-posterior-oracle-equivalence",
        worst <= 1e-9 and elapsed < 10,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gain_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 30))
        n_cls = int(rng.integers(2, 4))
        classes = tuple(f"c{k}" for k in range(n_cls))
        attrs, columns = [], []
        for j in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                attrs.append(AttributeSpec(f"f{j}", "continuous"))
                columns.append(list(np.round(rng.normal(size=n), 2)))
            else:
                dom = tuple(f"v{k}" for k in range(int(rng.integers(2, 4))))
                attrs.append(AttributeSpec(f"f{j}", "discrete", dom))
                columns.append([dom[int(rng.integers(len(dom)))] for _ in range(n)])
        schema = Schema(tuple(attrs), classes)
        rows = list(zip(*columns))
        labels = [classes[int(rng.integers(n_cls))] for _ in range(n)]
        weights = list(rng.uniform(0.2, 2.0, n))
        ds = synth.make_dataset(schema, rows, labels, weights)
        h_want = oracles.entropy_bits(labels, weights, classes)
        class_mass = np.bincount(ds.labels, weights=ds.weights, minlength=n_cls)
        worst = max(worst, abs(split_entropy(class_mass[None]) / class_mass.sum() - h_want))
        for j, spec in enumerate(schema.attributes):
            got, _ = _gain(ds, j, slice(None), ds.labels, ds.weights)
            if spec.is_discrete:
                want = oracles.gain_discrete(columns[j], labels, weights, classes)
            else:
                want, _ = oracles.gain_continuous(columns[j], labels, weights, classes)
                want = max(want, 0.0)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(
        "entropy-gain-oracle-equivalence",
        worst <= 1e-9 and elapsed < 10,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_weighted_score_reduction():
    rng = np.random.default_rng(303)
    probes = 0
    worst_unit = 0.0
    worst_zero = 0.0
    while probes < 1000:
        ds, *_ = random_discrete_dataset(rng, a_max=4)
        if ds.schema.n_attributes < 2:
            continue
        model = fit_naive_bayes(ds, k=1.0)
        ones = np.ones(model.attribute_count)
        drop = int(rng.integers(model.attribute_count))
        zero_w = rng.uniform(0.1, 1.0, model.attribute_count)
        zero_w[drop] = 0.0
        kept = [n for i, n in enumerate(ds.schema.attribute_names) if i != drop]
        reduced = project_attributes(ds, kept)
        reduced_model = fit_naive_bayes(reduced, k=1.0)
        kept_w = np.delete(zero_w, drop)
        rows = np.arange(min(ds.n, 10))

        def scores(m, data, w=None):
            return m.log_scores(m.encode_dataset(data, rows), w, n=len(rows))

        plain = np.array([model.log_scores(model.encode_example(ds.example(i))[:, None])[0]
                          for i in rows])
        worst_unit = max(worst_unit, float(np.max(np.abs(scores(model, ds, ones) - plain))))
        full = scores(model, ds, zero_w)
        red = scores(reduced_model, reduced, kept_w)
        worst_zero = max(worst_zero, float(np.max(np.abs(full - red))))
        probes += len(rows)
    report(
        "weight-exponent-reduction",
        worst_unit <= 1e-12 and worst_zero <= 1e-12,
        f"unit-weight err {worst_unit:.2e}, zero-weight err {worst_zero:.2e}, "
        f"{probes} probes",
    )


def test_criterion_4_feature_recovery():
    start = time.perf_counter()
    for seed in range(10):
        ds = synth.make_majority_dataset(seed=seed, n=2000)
        weights = select_attributes(ds, SelectionParams()).weights.as_mapping()
        for i in range(5):
            assert weights[f"inf{i}"] > 0, f"seed {seed}: inf{i} dropped"
            assert weights[f"noise{i}"] == 0.0, f"seed {seed}: noise{i} kept"
    elapsed = time.perf_counter() - start
    report("feature-recovery-10-seeds", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_5_nbtree_structure():
    # (a) separable data collapses to a single leaf
    schema = Schema(
        (AttributeSpec("f0", "discrete", ("x", "y")),), ("A", "B")
    )
    sep = synth.make_dataset(
        schema, [("x",)] * 30 + [("y",)] * 30, ["A"] * 30 + ["B"] * 30
    )
    single = build_nbtree(sep)
    ok_a = single.root.is_leaf

    # (b) XOR forces at least one split; the split leaves are perfect
    xor = synth.make_xor_dataset(50)
    tree = build_nbtree(xor, params=NBTreeParams(min_split_examples=1.0))
    pred = tree.predict_dataset(xor)
    ok_b = (not tree.root.is_leaf) and (pred == xor.labels).mean() == 1.0

    # (c) equal example weights: leaf models equal unweighted re-estimation
    worst = 0.0
    sym_cols = {
        j: np.asarray(spec.domain, dtype=object)[xor.columns[j]]
        for j, spec in enumerate(xor.schema.attributes)
    }
    stack = [(tree.root, np.arange(xor.n))]
    while stack:
        node, rows = stack.pop()
        if not node.is_leaf:
            j = xor.schema.attribute_index(node.attribute)
            for sym, child in node.children.items():
                stack.append((child, rows[sym_cols[j][rows] == sym]))
            continue
        labels = xor.labels[rows]
        for j, (spec, table) in enumerate(zip(node.payload.schema.attributes, node.payload.cond)):
            for ci in range(2):
                n_c = int(np.count_nonzero(labels == ci))
                for vi, sym in enumerate(spec.domain):
                    n_cv = int(
                        np.count_nonzero((labels == ci) & (sym_cols[j][rows] == sym))
                    )
                    want = (n_cv + 1.0) / (n_c + table.shape[1])
                    worst = max(worst, abs(table[ci, vi] - want))
    ok_c = worst <= 1e-9
    report(
        "nbtree-structural-checks",
        ok_a and ok_b and ok_c,
        f"single-leaf={ok_a}, xor-split={ok_b}, unweighted-equiv err {worst:.2e}",
    )


# -- desk-scale corpus runs ----------------------------------------------------------

COMPARE_ARGS = [
    "--sample-fraction", "0.1", "--test-fraction", "0.3", "--seed", "42",
]


def run_beside(corpus, command, out, *args) -> int:
    """Run one command from the directory of ``corpus``, named by its file
    name, so the config and the dataset ids in the artifacts are the same
    wherever the corpus lies."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(corpus.parent)
        return main([command, "--train", corpus.name, "--out", str(out), *args])


@pytest.fixture(scope="module")
def compare_run(kdd_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("compare-a")
    start = time.perf_counter()
    code = run_beside(kdd_corpus, "compare", out, *COMPARE_ARGS)
    elapsed = time.perf_counter() - start
    assert code == 0
    run_dirs = [p for p in out.iterdir() if p.name.startswith("run-")]
    assert len(run_dirs) == 1
    return run_dirs[0], elapsed


def test_criterion_6_desk_scale_pipeline(compare_run):
    run_dir, elapsed = compare_run
    bundle = json.loads((run_dir / "bundle.json").read_text())
    by_id = {r["model_id"]: r for r in bundle["reports"]}

    def dr(rep, cls):
        for row in rep["per_class"]:
            if row["class"] == cls:
                return row["dr"]
        raise KeyError(cls)

    def macro(rep):
        vals = [row["dr"] for row in rep["per_class"] if row["dr"] is not None]
        return sum(vals) / len(vals)

    proposed = by_id["proposed-nbtree"]
    nb_full = by_id["nb-full"]
    dos = dr(proposed, "DoS")
    normal = dr(proposed, "Normal")
    ok = (
        dos >= 99.0
        and normal >= 98.0
        and macro(proposed) >= macro(nb_full)
        and elapsed < 900
    )
    report(
        "desk-scale-pipeline",
        ok,
        f"DoS={dos:.2f} Normal={normal:.2f} "
        f"macro proposed={macro(proposed):.3f} vs nb-full={macro(nb_full):.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_composition_check(kdd_corpus, tmp_path):
    out = tmp_path / "inspect"
    code = main(["inspect", "--train", str(kdd_corpus), "--out", str(out)])
    assert code == 0
    run_dirs = [p for p in out.iterdir() if p.name.startswith("run-")]
    doc = json.loads((run_dirs[0] / "composition.json").read_text())
    got = {r["class"]: r["count"] for r in doc["per_class"]}
    want = {"Normal": 97277, "DoS": 391458, "R2L": 1126, "U2R": 52, "Probe": 4107}
    ok = got == want and doc["total"] == 494020
    report("composition-check", ok, f"{got}, total={doc['total']}")


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k != "wall_clock_sec"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def _comparable(path) -> bytes:
    """An artifact with its timing stripped: JSON without ``wall_clock_sec``
    fields, a report text without its ``wall:`` lines."""
    if path.suffix == ".json":
        return json.dumps(_strip_timing(json.loads(path.read_text())), sort_keys=True).encode()
    if path.parent.name == "reports":
        return "\n".join(ln for ln in path.read_text().splitlines()
                         if "wall:" not in ln).encode()
    return path.read_bytes()


def _artifacts(run_dir):
    """Every artifact of a run but ``run_info.json``, by relative path."""
    return {p.relative_to(run_dir).as_posix(): p for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "run_info.json"}


def test_criterion_8_determinism(compare_run, kdd_corpus, tmp_path_factory):
    run_a, _ = compare_run
    out_b = tmp_path_factory.mktemp("compare-b")
    assert run_beside(kdd_corpus, "compare", out_b, *COMPARE_ARGS) == 0
    run_b = next(p for p in out_b.iterdir() if p.name.startswith("run-"))
    assert run_b.name == run_a.name  # same config hash

    mismatches = []
    compared = 0
    for name, pa in _artifacts(run_a).items():
        compared += 1
        if _comparable(pa) != _comparable(run_b / name):
            mismatches.append(name)
    report(
        "compare-determinism",
        not mismatches and compared > 10,
        f"{compared} artifacts compared" + (f", mismatches: {mismatches}" if mismatches else ""),
    )


# -- artifacts pinned across commits -------------------------------------------------
#
# ``pins.json`` holds the SHA-256 of every artifact of two runs, timing
# stripped by criterion 8's rule: the seed-42 compare above and a train on
# a small synthetic corpus (scale 0.004: 1,987 records). Its NB-tree splits,
# on thresholds too, and every tree cuts a continuous attribute with more
# than 32 distinct values at the node (the capped cuts); it is the smallest
# scale tried whose trees all change when the cap does (32 -> 31; at scale
# 0.002 none does). A change that alters an artifact on purpose rewrites
# the pins with ``NBTREE_IDS_WRITE_PINS=1 pytest tests/test_acceptance.py
# -k pinned`` and names each changed artifact and why.

PINS = Path(__file__).with_name("pins.json")


def _check_pins(key: str, run_dir) -> None:
    got = {"run": run_dir.name, "artifacts": {
        name: hashlib.sha256(_comparable(path)).hexdigest()
        for name, path in _artifacts(run_dir).items()}}
    doc = json.loads(PINS.read_text()) if PINS.exists() else {}
    stack = {"python": platform.python_version(), "numpy": np.__version__}
    if os.environ.get("NBTREE_IDS_WRITE_PINS"):
        doc.update(stack)
        doc[key] = got
        PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    want = doc.get(key, {"run": None, "artifacts": {}})
    differ = [name for name in sorted(got["artifacts"].keys() | want["artifacts"].keys())
              if got["artifacts"].get(name) != want["artifacts"].get(name)]
    if got["run"] != want["run"]:
        differ.insert(0, f"run directory {got['run']} (pinned {want['run']})")
    pinned_on = f"python {doc.get('python')}, numpy {doc.get('numpy')}"
    report(f"pinned-artifacts-{key}", not differ,
           f"{len(got['artifacts'])} artifacts; pinned on {pinned_on}, running on "
           f"python {stack['python']}, numpy {stack['numpy']}"
           + (f"; differ: {differ}" if differ else ""))


def test_pinned_artifacts_compare(compare_run):
    _check_pins("compare-seed42", compare_run[0])


def test_pinned_artifacts_train(tmp_path):
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    assert run_beside(corpus, "train", tmp_path / "out") == 0
    _check_pins("train-kdd-0.004", next((tmp_path / "out").glob("run-*")))
