import argparse
import contextlib
import copy
import dataclasses
import errno
import functools
import io
import json
import operator
import os
import pickle
import re
import shutil
import tracemalloc
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import synth
from nbtree_ids import attribute_weighting, cli, evaluation
from nbtree_ids import nbtree as nbtree_module
from nbtree_ids import dataset as dataset_module
from nbtree_ids.attribute_weighting import SelectionParams
from nbtree_ids.cli import RunConfig, _load_config, build_parser, load_model_file, main
from nbtree_ids.dataset import class_counts, load_dataset
from nbtree_ids.evaluation import ComparisonConfig, evaluate, train_models
from nbtree_ids.exceptions import DataFormatError, TrainingError
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy
from nbtree_ids.nbtree import NBTreeParams
from nbtree_ids.probability import NaiveBayesModel

# a tiny but learnable KDD-format corpus: three crisply separated behaviours
def write_toy_corpus(path, n_normal=30, n_neptune=30, n_ipsweep=20):
    def row(service, flag, src, count, serror, label, proto="tcp"):
        fields = ["0", proto, service, flag, src, "400"] + ["0"] * 16
        fields += [count, count] + [serror] * 4 + ["1.00", "0.00", "0.00"]
        fields += ["255", "255"] + ["1.00", "0.00"] + ["0.00"] * 6
        assert len(fields) == 41
        return ",".join(fields) + f",{label}."

    lines = []
    for i in range(n_normal):
        lines.append(row("http", "SF", str(200 + i), "5", "0.00", "normal"))
    for i in range(n_neptune):
        lines.append(row("private", "S0", "0", "300", "1.00", "neptune"))
    for i in range(n_ipsweep):
        lines.append(row("eco_i", "SF", "12", "2", "0.00", "ipsweep", proto="icmp"))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def toy_corpus(tmp_path):
    path = tmp_path / "toy.csv"
    write_toy_corpus(path)
    return path


def base_args(toy_corpus, out_dir, *extra):
    return [
        "--train", str(toy_corpus), "--out", str(out_dir),
        "--weighting-min-leaf-examples", "2", "--min-split-examples", "5",
        *extra,
    ]


def run_dir(out_dir):
    dirs = [p for p in Path(out_dir).iterdir() if p.name.startswith("run-")]
    assert len(dirs) == 1
    return dirs[0]


# -- inspect ----------------------------------------------------------------------


def test_inspect_reports_composition(toy_corpus, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["inspect", *base_args(toy_corpus, out)]) == 0
    doc = json.loads((run_dir(out) / "composition.json").read_text())
    per_class = {r["class"]: r["count"] for r in doc["per_class"]}
    assert per_class == {"Normal": 30, "Probe": 20, "DoS": 30, "U2R": 0, "R2L": 0}
    assert doc["total"] == 80
    assert "config_hash" in doc
    assert "Normal" in capsys.readouterr().out


def test_inspect_empty_file_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["inspect", "--train", str(empty), "--out", str(tmp_path / "r")]) == 2


def test_inspect_missing_train_exits_1(tmp_path):
    assert main(["inspect", "--out", str(tmp_path / "r")]) == 1


def test_unreadable_record_file_exits_2_naming_it(toy_corpus, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    for args, path in (
        (["inspect", *base_args(missing, tmp_path / "r")], missing),
        (["compare", *base_args(toy_corpus, tmp_path / "r"), "--test", str(missing)], missing),
        (["inspect", *base_args(tmp_path, tmp_path / "r")], tmp_path),  # a directory
    ):
        assert main(args) == 2
        assert f"cannot read record file {path}:" in capsys.readouterr().err


def _with_undecodable_line(toy_corpus, tmp_path, line_number):
    lines = toy_corpus.read_bytes().splitlines(keepends=True)
    lines[line_number - 1] = lines[line_number - 1].replace(b"http", b"htt\xe9p")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    return bad


def test_undecodable_line_strict_exits_2_naming_it(toy_corpus, tmp_path, capsys):
    bad = _with_undecodable_line(toy_corpus, tmp_path, 7)
    assert main(["inspect", *base_args(bad, tmp_path / "r")]) == 2
    assert "line is not valid UTF-8 at line 7" in capsys.readouterr().err


def test_undecodable_line_permissive_is_skipped_and_counted(toy_corpus, tmp_path):
    bad = _with_undecodable_line(toy_corpus, tmp_path, 7)
    # a later field-count fault must still be reported at its own line
    bad.write_bytes(bad.read_bytes() + b"0,tcp,http,SF,200,normal.\n")
    out = tmp_path / "r"
    assert main(["inspect", "--permissive", *base_args(bad, out)]) == 0
    doc = json.loads((run_dir(out) / "composition.json").read_text())
    assert doc["total"] == 79
    assert doc["skip_reasons"] == {"bad-encoding": 1, "field-count": 1}
    info = json.loads((run_dir(out) / "run_info.json").read_text())
    (load,) = info["loads"]
    assert load["skipped"] == 2
    assert load["reader_lines"] + load["fallback_lines"] == 81
    assert 0 < load["peak_rss_mb"] <= info["peak_rss_mb"]


def test_sampled_permissive_run_keeps_skip_counts(toy_corpus, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(toy_corpus.read_text() + "0,tcp,http,SF,200,normal.\n"
                   + toy_corpus.read_text().splitlines()[0].replace("normal.", "nosuch.") + "\n")
    for command, extra in (("inspect", []), ("compare", ["--test-fraction", "0.25"])):
        out = tmp_path / command
        args = [command, "--permissive", "--sample-fraction", "0.5", "--seed", "1", *extra]
        assert main([*args, *base_args(bad, out)]) == 0
        doc = json.loads((run_dir(out) / "composition.json").read_text())
        assert doc["total"] < 80
        assert doc["skipped"] == 2
        assert doc["skip_reasons"] == {"field-count": 1, "unknown-attack": 1}


@pytest.mark.parametrize("command, flags, field", [
    ("inspect", ["--bins", "0"], "bins"),
    ("inspect", ["--weighting-min-leaf-examples", "-5"], "min_leaf_examples"),
    ("inspect", ["--weighting-min-leaf-examples", "nan"], "min_leaf_examples"),
    ("compare", ["--seed", "-1", "--test-fraction", "0.3"], "seed"),
    ("train", ["--folds", "1"], "folds"),
    ("train", ["--folds", "101"], "folds"),
    ("train", ["--folds", str(10**29)], "folds"),
    ("train", ["--significance-pct", "100"], "significance"),
    ("train", ["--nbtree-max-depth", "0"], "max_depth"),
    ("select", ["--weighting-max-depth", "0"], "max_depth"),
    ("select", ["--iterations", "0"], "iterations"),
    ("compare", ["--smoothing-k", "-1"], "smoothing_k"),
    ("compare", ["--smoothing-k", "inf"], "smoothing_k"),
    ("train", ["--min-split-examples", "-1"], "min_split_examples"),
], ids=["bins-0", "min-leaf-negative", "min-leaf-nan", "seed-negative", "folds-1", "folds-101",
        "folds-huge", "significance-100", "nbtree-depth-0", "weighting-depth-0", "iterations-0",
        "smoothing-k-negative", "smoothing-k-inf", "min-split-negative"])
def test_bad_flag_value_exits_1(tmp_path, capsys, command, flags, field):
    # no such training file: a check made only after the load would exit 2
    code = main([command, "--train", str(tmp_path / "missing.csv"), "--out",
                 str(tmp_path / "r"), *flags])
    assert code == 1
    assert field in capsys.readouterr().err


def test_run_config_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.selection_params() == SelectionParams()
    assert config.nbtree_params() == NBTreeParams()
    assert config.comparison_config() == ComparisonConfig()


# -- select ------------------------------------------------------------------------


def test_select_writes_weight_report(toy_corpus, tmp_path):
    out = tmp_path / "runs"
    assert main(["select", *base_args(toy_corpus, out)]) == 0
    rd = run_dir(out)
    doc = json.loads((rd / "selection.json").read_text())
    rows = {r["name"]: r for r in doc["attributes"]}
    assert len(rows) == 41
    kept = json.loads((rd / "kept.json").read_text())["kept"]
    assert kept and set(kept) <= set(rows)
    for name in kept:
        assert rows[name]["weight"] > 0
    assert (rd / "trees" / "weighting-tree.txt").exists()
    text = (rd / "selection.txt").read_text()
    assert text.startswith(f"# config {doc['config_hash']}")
    assert "attribute" in text


def test_select_reruns_byte_identical(toy_corpus, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["select", *base_args(toy_corpus, out1)]) == 0
    assert main(["select", *base_args(toy_corpus, out2)]) == 0
    for rel in ["selection.json", "selection.txt", "kept.json",
                "trees/weighting-tree.txt"]:
        assert (run_dir(out1) / rel).read_bytes() == (run_dir(out2) / rel).read_bytes()


def test_select_single_class_input_exits_3(tmp_path):
    path = tmp_path / "mono.csv"
    write_toy_corpus(path, n_normal=20, n_neptune=0, n_ipsweep=0)
    assert main(["select", "--train", str(path), "--out", str(tmp_path / "r")]) == 3
    assert not (tmp_path / "r").exists()


# -- train -------------------------------------------------------------------------


def test_train_writes_all_model_artifacts(toy_corpus, tmp_path):
    out = tmp_path / "runs"
    assert main(["train", *base_args(toy_corpus, out)]) == 0
    rd = run_dir(out)
    names = sorted(p.name for p in (rd / "models").iterdir())
    assert names == [
        "nb-full.json", "nb-reduced.json", "proposed-nbtree.json",
        "tree-full.json", "tree-reduced.json",
    ]
    for p in (rd / "models").iterdir():
        model = load_model_file(p)
        doc = json.loads(p.read_text())
        assert doc["config_hash"]
        # round trip: load -> dump matches the stored model body
        body = {k: v for k, v in doc.items() if k not in ("config_hash", "config")}
        assert model.to_dict() == body


def test_train_without_baselines(toy_corpus, tmp_path):
    out = tmp_path / "runs"
    assert main(["train", *base_args(toy_corpus, out), "--no-baselines"]) == 0
    names = [p.name for p in (run_dir(out) / "models").iterdir()]
    assert names == ["proposed-nbtree.json"]


def test_train_with_smoothing_off_exits_0(tmp_path):
    # NB-tree leaves that lack a class score it with probability 0, as the
    # split search that chose them did, instead of failing the build
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.01)
    code = main(["train", "--train", str(corpus), "--out", str(tmp_path / "r"),
                 "--smoothing-k", "0"])
    assert code == 0


def test_train_reruns_identical_tree_dumps(toy_corpus, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", *base_args(toy_corpus, out1)]) == 0
    assert main(["train", *base_args(toy_corpus, out2)]) == 0
    t1 = sorted((run_dir(out1) / "trees").iterdir())
    t2 = sorted((run_dir(out2) / "trees").iterdir())
    assert [p.name for p in t1] == [p.name for p in t2]
    for a, b in zip(t1, t2):
        assert a.read_bytes() == b.read_bytes()


# -- eval --------------------------------------------------------------------------


def test_eval_perfect_toy_models(toy_corpus, tmp_path):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out)]) == 0
    models = sorted(str(p) for p in (run_dir(out) / "models").iterdir())
    out2 = tmp_path / "eval"
    code = main([
        "eval", "--test", str(toy_corpus), "--out", str(out2), "--models", *models,
    ])
    assert code == 0
    reports = list((run_dir(out2) / "reports").glob("*.json"))
    assert len(reports) == 5
    for p in reports:
        doc = json.loads(p.read_text())
        for row in doc["per_class"]:
            if row["support"]:
                assert row["dr"] == 100.0
    bundle = json.loads((run_dir(out2) / "bundle.json").read_text())
    assert len(bundle["reports"]) == 5


def test_eval_permissive_records_skipped_lines(toy_corpus, tmp_path):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out), "--no-baselines"]) == 0
    models = [str(p) for p in (run_dir(out) / "models").iterdir()]
    test = tmp_path / "test.csv"
    test.write_text(toy_corpus.read_text() + "0,tcp,http,SF,200,normal.\n")
    out2 = tmp_path / "eval"
    code = main(["eval", "--permissive", "--test", str(test), "--out", str(out2),
                 "--models", *models])
    assert code == 0
    doc = json.loads((run_dir(out2) / "composition.json").read_text())
    assert doc["total"] == 80
    assert doc["skipped"] == 1
    assert doc["skip_reasons"] == {"field-count": 1}


def test_eval_schema_mismatch_exits_4(toy_corpus, tmp_path):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out), "--no-baselines"]) == 0
    model_file = next((run_dir(out) / "models").iterdir())
    # rename the attributes throughout, so the file is consistent but no
    # projection of the test set matches it
    doc = json.loads(model_file.read_text())
    names = set(doc["attributes"])

    def rename(value):
        if isinstance(value, dict):
            return {k: rename(v) for k, v in value.items()}
        if isinstance(value, list):
            return [rename(v) for v in value]
        return f"no_such_{value}" if value in names else value

    doc = rename(doc)
    doc["schema_hash"] = NaiveBayesModel.from_dict(_first_leaf(doc["root"])["model"]).schema_hash
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main([
        "eval", "--test", str(toy_corpus), "--out", str(tmp_path / "e"),
        "--models", str(broken),
    ])
    assert code == 4
    assert not (tmp_path / "e").exists()


def test_eval_of_a_tree_with_reordered_classes_exits_4(toy_corpus, tmp_path, capsys):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out)]) == 0
    doc = json.loads((run_dir(out) / "models" / "tree-full.json").read_text())
    doc["classes"].reverse()
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["eval", "--test", str(toy_corpus), "--out", str(tmp_path / "e"),
                 "--models", str(broken)])
    assert code == 4
    assert "does not match the test schema" in capsys.readouterr().err


def _no_priors(doc):
    del doc["priors"]


def _narrow_table(doc):
    attr = next(a for a in doc["attributes"] if a["kind"] == "discrete")
    attr["cond"] = [row[:-1] for row in attr["cond"]]


def _reordered_domain(doc):
    attr = next(a for a in doc["attributes"] if len(a["domain"]) > 1)
    attr["domain"] = attr["domain"][::-1]


def _split_outside_attributes(doc):
    leaf = doc["root"]
    doc["root"] = {"depth": leaf["depth"], "weight": leaf["weight"], "n": leaf["n"],
                   "attribute": "protocol_type", "children": {"tcp": leaf}}
    assert "protocol_type" not in doc["attributes"]


def _first_leaf(node):
    while "attribute" in node:
        node = node["left"] if "threshold" in node else next(iter(node["children"].values()))
    return node


def _bogus_leaf_label(doc):
    _first_leaf(doc["root"])["label"] = "Bogus"


def _foreign_leaf_schema(doc):
    model = _first_leaf(doc["root"])["model"]
    for part in (model, model["schema"]):
        part["classes"] = part["classes"][::-1]


def _root_split(doc, **split):
    """Replace the tree's root by a split over its first leaf."""
    leaf = _first_leaf(doc["root"])
    doc["root"] = {"depth": 1, "weight": leaf["weight"], "n": leaf["n"], **split}
    return leaf


def _empty_children(doc):
    _root_split(doc, attribute="service", children={})


def _heavy_weight(doc):
    leaf = _root_split(doc, attribute="service")
    doc["root"]["children"] = {"http": {**leaf, "weight": "heavy"}}


def _threshold(value):
    def damage(doc):
        leaf = _root_split(doc, attribute="src_bytes", threshold=value)
        doc["root"].update(left=leaf, right=leaf)
    return damage


def _text_depth(doc):
    doc["root"]["depth"] = "deep"


def _binned(doc):
    return next(a for a in doc["attributes"] if len(a["edges"]) > 1)


def _reversed_edges(doc):
    _binned(doc)["edges"].reverse()


def _nan_edge(doc):
    _binned(doc)["edges"][0] = float("nan")


def _table_entry(value):
    def damage(doc):
        doc["attributes"][0]["cond"][0][0] = value
    return damage


def _priors_sum_to_5(doc):
    doc["priors"] = [5 * p for p in doc["priors"]]


def _negative_k(doc):
    doc["smoothing_k"] = -1.0


def _nodes(node):
    """A saved tree's nodes, ``node`` first."""
    yield node
    kids = ((node["left"], node["right"]) if "threshold" in node
            else node.get("children", {}).values())
    for child in kids:
        yield from _nodes(child)


def _every_node(key, value):
    """Set ``key`` of every node to ``value(old value)``."""
    def damage(doc):
        for node in _nodes(doc["root"]):
            node[key] = value(node[key])
    return damage


def _deep_child(doc):
    next(iter(doc["root"]["children"].values()))["depth"] = 3


def _listed_children(doc):
    doc["root"]["children"] = list(doc["root"]["children"].values())


def _model_not_an_object(doc):
    doc["root"]["model"] = 1.5


def _no_classes(doc):
    doc["classes"] = []


def _empty_branch_child(doc):
    leaf = _root_split(doc, attribute="service", empty_branches=["http"])
    doc["root"].update(children={"http": {**leaf, "depth": 2}}, fallback_model=leaf["model"])


def _heavier_first_child(doc):
    children = list(doc["root"]["children"].values())
    children[0]["weight"] = 2 * max(child["weight"] for child in children)


def _first_child_n_plus_one(doc):
    next(iter(doc["root"]["children"].values()))["n"] += 1


def _negative_class_weight(doc):
    doc["class_weights"][0] = -doc["class_weights"][0]


def _nan_attr_weight(doc):
    doc["attr_weights"][0] = float("nan")   # json writes and reads it as NaN


def _negative_attr_weight(doc):
    doc["attr_weights"][0] = -3.0


@pytest.mark.parametrize("model, damage", [
    ("nb-full", _no_priors),
    ("nb-full", _narrow_table),
    ("nb-full", _reordered_domain),
    ("proposed-nbtree", _split_outside_attributes),
    ("tree-full", _bogus_leaf_label),
    ("proposed-nbtree", _foreign_leaf_schema),
    ("proposed-nbtree", _nan_attr_weight),
    ("proposed-nbtree", _negative_attr_weight),
    ("tree-full", _empty_children),
    ("tree-full", _heavy_weight),
    ("tree-full", _threshold("x")),
    ("tree-full", _threshold(float("nan"))),
    ("tree-full", _threshold(10**400)),
    ("proposed-nbtree", _text_depth),
    ("nb-full", _reversed_edges),
    ("nb-full", _nan_edge),
    ("nb-full", _table_entry(-1.0)),
    ("nb-full", _table_entry(float("nan"))),
    ("nb-full", _priors_sum_to_5),
    ("nb-full", _negative_k),
    ("nb-full", _negative_class_weight),
    ("tree-full", _every_node("weight", lambda w: -w)),
    ("proposed-nbtree", _every_node("weight", lambda w: -w)),
    ("tree-full", _every_node("n", lambda n: -5)),
    ("proposed-nbtree", _every_node("n", lambda n: -5)),
    ("tree-full", _every_node("depth", lambda d: 7)),
    ("proposed-nbtree", _every_node("depth", lambda d: 7)),
    ("tree-full", _deep_child),
    ("tree-full", _listed_children),
    ("proposed-nbtree", _empty_branch_child),
    ("proposed-nbtree", _model_not_an_object),
    ("proposed-nbtree", _no_classes),
    ("tree-full", _heavier_first_child),
    ("tree-full", _first_child_n_plus_one),
], ids=["missing-priors", "narrow-table", "reordered-domain", "split-outside-attributes",
        "bogus-leaf-label", "foreign-leaf-schema", "nan-attr-weight", "negative-attr-weight",
        "empty-children", "text-weight", "text-threshold", "nan-threshold", "huge-threshold",
        "text-depth", "reversed-edges", "nan-edge", "negative-table-entry", "nan-table-entry",
        "priors-sum-to-5", "negative-smoothing-k", "negative-class-weight",
        "negative-tree-weights", "negative-nbtree-weights", "negative-tree-n",
        "negative-nbtree-n", "tree-depth-7", "nbtree-depth-7", "child-depth-3",
        "listed-children", "empty-branch-is-a-child", "model-not-an-object",
        "nbtree-without-classes", "children-outweigh-their-node",
        "children-outnumber-their-node"])
def test_eval_malformed_model_file_exits_2(toy_corpus, tmp_path, capsys, model, damage):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out)]) == 0
    doc = json.loads((run_dir(out) / "models" / f"{model}.json").read_text())
    damage(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["eval", "--test", str(toy_corpus), "--out", str(tmp_path / "e"),
                 "--models", str(broken)])
    assert code == 2
    assert str(broken) in capsys.readouterr().err


@pytest.mark.parametrize("model_id", ["../../escaped", "a/b", "..", ".hidden", "", 7, None])
def test_eval_rejects_a_model_id_that_is_not_a_file_name(toy_corpus, tmp_path, capsys,
                                                          model_id):
    out = tmp_path / "train"
    assert main(["train", *base_args(toy_corpus, out)]) == 0
    doc = json.loads((run_dir(out) / "models" / "nb-full.json").read_text())
    doc["model_id"] = model_id
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    evalout = tmp_path / "nested" / "evalout"
    code = main(["eval", "--test", str(toy_corpus), "--out", str(evalout),
                 "--models", str(edited)])
    assert code == 2
    assert str(edited) in capsys.readouterr().err
    assert not evalout.exists()
    assert not list(tmp_path.rglob("escaped*"))


MODEL_IDS = ("proposed-nbtree", "nb-full", "tree-full", "nb-reduced", "tree-reduced")


@pytest.fixture(scope="module")
def trained_kdd(tmp_path_factory):
    """A work directory, a test file of every 8th line of a small synthetic
    KDD corpus (1,987 lines) and the five model documents a default
    ``train`` writes from that corpus. Unlike the toy corpus's, its trees
    split on thresholds."""
    work = tmp_path_factory.mktemp("fuzz")
    corpus = work / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    assert main(["train", "--train", str(corpus), "--out", str(work / "train")]) == 0
    models = run_dir(work / "train") / "models"
    docs = {m: json.loads((models / f"{m}.json").read_text()) for m in MODEL_IDS}
    for tree in ("proposed-nbtree", "tree-full"):
        assert any("threshold" in node for node in _nodes(docs[tree]["root"]))
    test = work / "test.csv"
    test.write_text("".join(corpus.read_text().splitlines(keepends=True)[::8]))
    return work, test, docs


def _places(value, path=()):
    """The path of every value inside a model document but its config stamp."""
    if isinstance(value, dict):
        items = [(k, v) for k, v in value.items() if path or k not in ("config", "config_hash")]
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for key, sub in items:
        yield path + (key,)
        yield from _places(sub, path + (key,))


_DROP = object()
# one change to one value; a change that does not apply to the value keeps it
_CHANGES = {
    "drop": lambda v: _DROP,
    "retype": lambda v: ("x" if v is None or isinstance(v, (bool, int, float))
                         else {} if isinstance(v, list) else [] if isinstance(v, dict) else 1),
    "nan": lambda v: float("nan"),
    "negate": lambda v: -v if isinstance(v, (int, float)) and not isinstance(v, bool) else v,
    "reverse": lambda v: v[::-1] if isinstance(v, list) else v,
    "empty": lambda v: type(v)() if isinstance(v, (list, dict)) else v,
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_eval_of_a_damaged_model_file_exits_0_or_2(trained_kdd, data):
    work, corpus, docs = trained_kdd
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(MODEL_IDS), label="model")])
    *head, key = data.draw(st.sampled_from(list(_places(doc))), label="path")
    parent = functools.reduce(operator.getitem, head, doc)
    changed = _CHANGES[data.draw(st.sampled_from(sorted(_CHANGES)), label="change")](parent[key])
    if changed is _DROP:
        del parent[key]
    else:
        parent[key] = changed
    broken = work / "broken.json"
    broken.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--test", str(corpus), "--out", str(work / "eval"),
                     "--models", str(broken)])
    # a file that no longer fits the test schema is an evaluation error (exit 4)
    assert (code == 0 or (code == 2 and str(broken) in err.getvalue())
            or (code == 4 and "does not match the test schema" in err.getvalue())), \
        (code, err.getvalue())


def test_eval_rejects_an_nbtree_listing_its_attributes_unlike_its_leaves(trained_kdd, capsys):
    work, corpus, docs = trained_kdd
    doc = copy.deepcopy(docs["proposed-nbtree"])
    assert len(doc["attributes"]) >= 2
    doc["attributes"][:2] = doc["attributes"][1::-1]
    swapped = work / "swapped.json"
    swapped.write_text(json.dumps(doc))
    code = main(["eval", "--test", str(corpus), "--out", str(work / "swapped-eval"),
                 "--models", str(swapped)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(swapped) in err and "attributes" in err
    assert not (work / "swapped-eval").exists()


def test_eval_rejects_two_models_with_one_id(toy_corpus, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", *base_args(toy_corpus, out1), "--no-baselines"]) == 0
    assert main(["train", *base_args(toy_corpus, out2), "--no-baselines"]) == 0
    models = [str(run_dir(o) / "models" / "proposed-nbtree.json") for o in (out1, out2)]
    code = main(["eval", "--test", str(toy_corpus), "--out", str(tmp_path / "e"),
                 "--models", *models])
    assert code == 1
    assert "'proposed-nbtree'" in capsys.readouterr().err


def test_eval_requires_models_and_test(toy_corpus, tmp_path):
    assert main(["eval", "--test", str(toy_corpus), "--out", str(tmp_path)]) == 1
    assert main(["eval", "--models", "x.json", "--out", str(tmp_path)]) == 1


@pytest.fixture(scope="module")
def toy_models(tmp_path_factory):
    """A work directory, the toy corpus's lines and the paths of the five
    models ``train`` writes from it."""
    work = tmp_path_factory.mktemp("stream")
    corpus = work / "toy.csv"
    write_toy_corpus(corpus)
    assert main(["train", *base_args(corpus, work / "train")]) == 0
    models = sorted(str(p) for p in (run_dir(work / "train") / "models").glob("*.json"))
    return work, corpus.read_text().splitlines(keepends=True), models


def test_evals_of_other_models_make_their_own_runs(toy_models):
    work, _, models = toy_models
    out = work / "two-evals"
    for model in models[:2]:
        assert main(["eval", "--test", str(work / "toy.csv"), "--out", str(out),
                     "--models", model]) == 0
    runs = sorted(out.glob("run-*"))
    assert len(runs) == 2
    named = [json.loads((run / "config.json").read_text())["config"]["models"] for run in runs]
    assert sorted(named) == [[m] for m in models[:2]]
    for run, (model,) in zip(runs, named):
        (report,) = (run / "reports").glob("*.json")
        assert report.name == Path(model).name


def _stream_eval(work, lines, models, *flags, batch_rows, chunk_lines):
    """Exit code, stderr and output root of an ``eval`` of ``lines`` that reads
    ``chunk_lines`` lines a block and scores ``batch_rows`` rows a batch."""
    test, out = work / "stream.csv", work / "stream-out"
    test.write_text("".join(lines))
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr(cli, "_EVAL_BATCH_ROWS", batch_rows)
        mp.setattr(dataset_module, "_CHUNK_LINES", chunk_lines)
        code = main(["eval", *flags, "--test", str(test), "--out", str(out), "--models", *models])
    return code, err.getvalue(), out


def _untimed(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("wall_clock_sec", "config", "config_hash")}


def _stream_line(toy: list[str], kind: str, k: int) -> str:
    """A line of the streamed test file: a toy row, a toy row with a service
    no schema lists (a new symbol in permissive mode), a bad line or a blank."""
    row = toy[k % len(toy)]
    fields = row.rstrip("\n").split(",")
    if kind == "new-symbol":
        fields[2] = f"svc{k % 3}"
    elif kind == "field-count":
        del fields[5]
    elif kind == "bad-number":
        fields[4] = "12x"
    elif kind == "unknown-attack":
        fields[-1] = "nosuch."
    elif kind == "blank":
        return "\n"
    return ",".join(fields) + "\n"


_STREAM_KINDS = ("row", "row", "row", "new-symbol", "field-count", "bad-number",
                 "unknown-attack", "blank")


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.tuples(st.sampled_from(_STREAM_KINDS), st.integers(0, 79)),
                      min_size=1, max_size=60),
       batch_rows=st.integers(1, 12), chunk_lines=st.integers(1, 5), permissive=st.booleans())
def test_streamed_eval_equals_eval_of_the_whole_load(toy_models, picks, batch_rows, chunk_lines,
                                                     permissive):
    """Scored batch by batch, ``eval`` writes the reports and composition of
    a whole load: symbols first seen in a later batch, bad lines on block
    and batch edges. A fault of the file exits 2 naming its line, and
    leaves no run directory."""
    work, toy, models = toy_models
    lines = [_stream_line(toy, kind, k) for kind, k in picks]
    flags = ["--permissive"] if permissive else []
    code, err, out = _stream_eval(work, lines, models, *flags, batch_rows=batch_rows,
                                  chunk_lines=chunk_lines)
    try:
        whole = load_dataset(work / "stream.csv", kdd99_schema(), kdd99_taxonomy(),
                             permissive=permissive)
    except DataFormatError as exc:   # EmptyDatasetError too
        assert code == 2 and str(exc) in err and not out.exists(), (code, err)
        return
    assert code == 0, err
    rd = run_dir(out)
    composition = cli._composition_doc(whole.dataset_id, class_counts(whole), whole.load_report)
    assert _untimed(json.loads((rd / "composition.json").read_text())) == composition
    for path in models:
        model = load_model_file(path)
        got = json.loads((rd / "reports" / f"{model.model_id}.json").read_text())
        assert _untimed(got) == _untimed(evaluate(model, whole).to_dict())


def test_strict_eval_of_a_bad_line_in_a_late_batch_exits_2(toy_models):
    work, toy, models = toy_models
    lines = list(toy)
    lines[70] = _stream_line(toy, "bad-number", 70)
    code, err, out = _stream_eval(work, lines, models, batch_rows=8, chunk_lines=4)
    assert code == 2
    assert "line 71" in err
    assert not out.exists()


def test_eval_reports_a_bad_line_before_a_model_that_does_not_fit(toy_models, tmp_path):
    """The first batch already shows the model does not fit the test schema,
    but the file is read whole first, as a whole load would."""
    work, toy, models = toy_models
    doc = json.loads(Path(next(m for m in models if m.endswith("tree-full.json"))).read_text())
    doc["classes"].reverse()
    misfit = tmp_path / "misfit.json"
    misfit.write_text(json.dumps(doc))
    lines = list(toy)
    lines[70] = _stream_line(toy, "bad-number", 70)
    code, err, out = _stream_eval(work, lines, [str(misfit)], batch_rows=8, chunk_lines=4)
    assert (code, "line 71" in err, out.exists()) == (2, True, False)
    code, err, _ = _stream_eval(work, toy, [str(misfit)], batch_rows=8, chunk_lines=4)
    assert (code, "does not match the test schema" in err) == (4, True)


def test_eval_peaks_below_a_quarter_of_the_test_columns(toy_models):
    """``eval`` holds one batch of the test set at a time, never all of it."""
    work, toy, models = toy_models
    big = work / "big.csv"
    big.write_text("".join(toy * 1250))   # 100,000 rows
    column_bytes = sum(col.nbytes for col in
                       load_dataset(big, kdd99_schema(), kdd99_taxonomy()).columns)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--test", str(big), "--out", str(work / "big-out"),
                         "--models", *models])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < column_bytes / 4, (peak, column_bytes)


def test_a_one_range_eval_peaks_below_a_quarter_of_the_test_columns(toy_models, monkeypatch):
    """The bound above, over a whole-file read in this one process: a
    ranged eval's peak under ``tracemalloc`` covers only its first range."""
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 1)
    test_eval_peaks_below_a_quarter_of_the_test_columns(toy_models)


def _misfit(work) -> str:
    """A copy of the toy ``tree-full`` model with its classes reversed,
    which no projection of the test set fits, named ``misfit``."""
    (path,) = (run_dir(work / "train") / "models").glob("tree-full.json")
    doc = json.loads(path.read_text())
    doc["classes"].reverse()
    doc["model_id"] = "misfit"
    misfit = work / "misfit.json"
    misfit.write_text(json.dumps(doc))
    return str(misfit)


def _eval_outcome(work, lines, models, flags, batch_rows, chunk_lines):
    """An eval's untimed ``composition.json`` and reports, and its
    ``readers``; or its exit code, stderr and whether it wrote a run."""
    code, err, out = _stream_eval(work, lines, models, *flags, batch_rows=batch_rows,
                                  chunk_lines=chunk_lines)
    if code != 0:
        return (code, err, out.exists()), None
    rd = run_dir(out)
    docs = {path.relative_to(rd).as_posix(): _untimed(json.loads(path.read_text()))
            for path in [rd / "composition.json", *sorted((rd / "reports").glob("*.json"))]}
    return docs, json.loads((rd / "run_info.json").read_text())["loads"][0]["readers"]


_ROWS = [("row", k) for k in range(0, 80, 9)]  # nine toy rows, of all three classes


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.tuples(st.sampled_from(_STREAM_KINDS), st.integers(0, 79)),
                      min_size=1, max_size=60),
       readers=st.integers(2, 4), range_bytes=st.integers(1, 200),
       batch_rows=st.integers(1, 12), chunk_lines=st.integers(1, 5),
       permissive=st.booleans(), misfit=st.booleans())
# a symbol first seen in a later range
@example(picks=_ROWS + [("new-symbol", 4), ("row", 5), ("new-symbol", 7)], readers=2,
         range_bytes=1, batch_rows=3, chunk_lines=2, permissive=True, misfit=False)
# a bad line in a later range, and a model that does not fit: exit 2 naming line 8
@example(picks=_ROWS[:7] + [("bad-number", 1)] + _ROWS[:2], readers=2, range_bytes=1,
         batch_rows=2, chunk_lines=1, permissive=False, misfit=True)
# that model alone: exit 4
@example(picks=_ROWS, readers=3, range_bytes=1, batch_rows=2, chunk_lines=1,
         permissive=False, misfit=True)
# ranges whose every line is skipped, the last among them
@example(picks=_ROWS[:4] + [("field-count", 0), ("unknown-attack", 0), ("bad-number", 0),
                             ("blank", 0)] * 2,
         readers=3, range_bytes=1, batch_rows=2, chunk_lines=2, permissive=True, misfit=False)
def test_ranged_eval_equals_one_process_eval(toy_models, picks, readers, range_bytes, batch_rows,
                                             chunk_lines, permissive, misfit):
    """Read and scored in ranges, one process each, ``eval`` writes the
    composition and reports of a one-process eval, and fails as it does:
    with the same exit code and message."""
    work, toy, models = toy_models
    lines = [_stream_line(toy, kind, k) for kind, k in picks]
    models = [*models, _misfit(work)] if misfit else models
    flags = ["--permissive"] if permissive else []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "_RANGE_BYTES", range_bytes)
        mp.setattr(dataset_module, "_CHUNK_LINES", chunk_lines)
        mp.setattr(dataset_module, "_usable_cpus", lambda: 1)
        expected, one = _eval_outcome(work, lines, models, flags, batch_rows, chunk_lines)
        mp.setattr(dataset_module, "_usable_cpus", lambda: readers)
        got, many = _eval_outcome(work, lines, models, flags, batch_rows, chunk_lines)
        ranges = dataset_module._byte_ranges(work / "stream.csv", kdd99_schema())
    event(f"{len(ranges)} ranges")
    assert got == expected
    assert (one, many) in ((1, len(ranges)), (None, None))


def test_no_scorer_process_outlives_an_eval(toy_models, monkeypatch):
    def no_process_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def run_eval():
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--test", str(test), "--out", str(out), "--models", *models])
        return code, err.getvalue()

    work, toy, models = toy_models
    test, out = work / "ranged.csv", work / "ranged-out"
    test.write_text("".join(toy))
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 64)
    monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 4)
    no_process_left()
    assert run_eval() == (0, "")
    assert json.loads((run_dir(out) / "run_info.json").read_text())["loads"][0]["readers"] == 2
    no_process_left()

    # a range process that dies without a result, or raises while it
    # scores, or an eval interrupted while it waits for its range processes
    parent, read_lines, score = os.getpid(), dataset_module._iter_lines, cli.evaluate_batches

    def dies(*args):
        if os.getpid() != parent:
            os._exit(3)
        return read_lines(*args)

    def runs_out(*args):
        if os.getpid() != parent:
            raise MemoryError("no room for the scores")
        return score(*args)

    def interrupted(_result):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        mp.setattr(dataset_module, "_iter_lines", dies)
        code, err = run_eval()
        assert code == 2 and err.startswith(f"data error: cannot read record file {test}: ")
        assert not out.exists()
        no_process_left()
    with monkeypatch.context() as mp:
        # a fault of the range's consumer outside the models' own scoring
        # comes back through the load, which names the file and the fault
        mp.setattr(cli, "evaluate_batches", runs_out)
        assert run_eval() == (2, f"data error: cannot read record file {test}: "
                                 "MemoryError: no room for the scores\n")
        assert not out.exists()
        no_process_left()
        mp.setattr(dataset_module, "pickle",
                   SimpleNamespace(dumps=pickle.dumps, loads=interrupted))
        with pytest.raises(KeyboardInterrupt):
            run_eval()
        no_process_left()

    # a fork that fails leaves no pipe open
    def no_fork():
        raise OSError("no process to spare")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(dataset_module.os, "fork", no_fork)
    assert run_eval() == (2, f"data error: cannot read record file {test}: "
                             "OSError: no process to spare\n")
    assert len(os.listdir("/proc/self/fd")) == open_fds
    no_process_left()


def test_no_build_or_baseline_process_outlives_a_train(tmp_path, monkeypatch):
    def no_process_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def run_train():
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--train", str(corpus), "--out", str(out)])
        return code, err.getvalue()

    corpus, out = tmp_path / "kdd.csv", tmp_path / "out"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    monkeypatch.setattr(nbtree_module, "_SEARCH_ROWS", 0)
    # one usable CPU: nothing is forked
    with monkeypatch.context() as mp:
        mp.setattr(dataset_module, "_usable_cpus", lambda: 1)
        mp.setattr(dataset_module.os, "fork", None)
        assert run_train() == (0, "")
    assert json.loads((run_dir(out) / "run_info.json").read_text())["nbtree"]["processes"] == 1
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 2)
    no_process_left()
    assert run_train() == (0, "")
    assert json.loads((run_dir(out) / "run_info.json").read_text())["nbtree"]["processes"] == 2
    no_process_left()

    # a search process that raises or dies, a baseline process that fails
    # alone or while the weighting pass fails too: the weighting pass's
    # error wins, as the earliest item's
    parent = os.getpid()
    search, fit, select = (nbtree_module._BuildContext.cut_utility, evaluation.fit_naive_bayes,
                           evaluation.select_attributes)

    def in_child(fault, fn):
        def patched(*args, **kwargs):
            if os.getpid() != parent:
                fault()
            return fn(*args, **kwargs)
        return patched

    def raise_(message):
        def fault():
            raise TrainingError(message)
        return fault

    def weighting_fails(*args, **kwargs):
        select(*args, **kwargs)
        raise TrainingError("the weighting pass failed")

    for patches, want in (
            ([(nbtree_module._BuildContext, "cut_utility",
               in_child(raise_("no room for the split"), search))],
             "training error: no room for the split\n"),
            ([(nbtree_module._BuildContext, "cut_utility", in_child(lambda: os._exit(3), search))],
             "training error: NB-tree split search: worker process "),
            ([(evaluation, "fit_naive_bayes", in_child(raise_("no room for the baseline"), fit))],
             "training error: no room for the baseline\n"),
            ([(evaluation, "fit_naive_bayes", in_child(raise_("no room for the baseline"), fit)),
              (evaluation, "select_attributes", weighting_fails)],
             "training error: the weighting pass failed\n"),
            ([(evaluation, "fit_naive_bayes", in_child(lambda: os._exit(3), fit)),
              (evaluation, "select_attributes", weighting_fails)],
             "training error: the weighting pass failed\n")):
        with monkeypatch.context() as mp:
            for owner, name, value in patches:
                mp.setattr(owner, name, value)
            code, err = run_train()
        assert code == 3 and err.startswith(want) and "record file" not in err
        assert not out.exists()
        no_process_left()


# -- compare -----------------------------------------------------------------------


def test_compare_end_to_end(toy_corpus, tmp_path):
    out = tmp_path / "runs"
    code = main([
        "compare", *base_args(toy_corpus, out),
        "--test-fraction", "0.25", "--seed", "7",
    ])
    assert code == 0
    rd = run_dir(out)
    bundle = json.loads((rd / "bundle.json").read_text())
    assert {r["model_id"] for r in bundle["reports"]} == {
        "proposed-nbtree", "nb-full", "tree-full", "nb-reduced", "tree-reduced",
    }
    assert bundle["config"]["seed"] == 7
    assert (rd / "composition.json").exists()


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("compare", ["--test-fraction", "0.25", "--seed", "7"]),
])
def test_run_info_records_the_nbtree_build(toy_corpus, tmp_path, command, extra):
    out = tmp_path / "runs"
    assert main([command, *base_args(toy_corpus, out), *extra]) == 0
    info = json.loads((run_dir(out) / "run_info.json").read_text())
    build = info["nbtree"]
    tree = json.loads((run_dir(out) / "models" / "proposed-nbtree.json").read_text())
    assert "build_stats" not in json.dumps(tree)
    nodes = [tree["root"]]
    for node in nodes:
        nodes += [node[k] for k in ("left", "right") if k in node]
        nodes += list(node.get("children", {}).values())
    assert build["nodes"] == len(nodes)
    assert build["cross_validations"] == build["split_searches"] + build["children_scored"]
    assert build["build_s"] > 0


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("compare", ["--test-fraction", "0.25", "--seed", "7"]),
])
def test_run_info_records_the_selection(toy_corpus, tmp_path, command, extra):
    out = tmp_path / "runs"
    assert main([command, *base_args(toy_corpus, out), *extra]) == 0
    rd = run_dir(out)
    selection = json.loads((rd / "run_info.json").read_text())["selection"]
    audit = json.loads((rd / "selection.json").read_text())
    # one line per weighting-tree node, its depth first
    depths = [int(line.split()[0]) for line in
              (rd / "trees" / "weighting-tree.txt").read_text().splitlines()[1:]]
    assert selection["relabeled"] == audit["relabeled_count"]
    assert selection["kept"] == len(audit["kept"]) > 0
    assert (selection["tree_nodes"], selection["tree_depth"]) == (len(depths), max(depths))
    assert selection["tree_depth"] > 1
    assert selection["select_s"] > 0


@pytest.mark.parametrize("command, extra, stages", [
    ("train", ["--sample-fraction", "0.9", "--seed", "7"], {"sample"}),
    ("compare", ["--test-fraction", "0.25", "--seed", "7"], {"split", "score"}),
])
def test_run_info_records_the_stage_seconds(toy_corpus, tmp_path, command, extra, stages):
    out = tmp_path / "runs"
    assert main([command, *base_args(toy_corpus, out), *extra]) == 0
    seconds = json.loads((run_dir(out) / "run_info.json").read_text())["stage_s"]
    assert set(seconds) == stages | {"nb-full", "tree-full", "nb-reduced", "tree-reduced"}
    assert all(s > 0 for s in seconds.values())


def _count_column_sorts(monkeypatch):
    """The arrays ``np.unique`` ranks (``return_inverse``) from now on."""
    sorted_arrays, unique = [], np.unique

    def counting(values, *args, **kwargs):
        if kwargs.get("return_inverse"):
            sorted_arrays.append(values)
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return sorted_arrays


def test_training_sorts_each_continuous_column_once(tmp_path, monkeypatch):
    """The weighting pass, the baselines and every node of both trees read
    one sort of each continuous training column. The train pin's corpus,
    where both trees split below the root (the toy corpus's do not)."""
    corpus = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.004)
    train = load_dataset(corpus, kdd99_schema(), kdd99_taxonomy())
    sorted_arrays = _count_column_sorts(monkeypatch)
    selection, models = train_models(train)
    assert selection.stats["tree_depth"] > 2
    assert models["proposed-nbtree"].build_stats["split_searches"] > 1
    continuous = [col for spec, col in zip(train.schema.attributes, train.columns)
                  if not spec.is_discrete]
    assert len(sorted_arrays) == len(continuous) == 34
    assert all(any(a is col for a in sorted_arrays) for col in continuous)


def test_eval_sorts_no_column(toy_models, monkeypatch):
    work, _, models = toy_models
    sorted_arrays = _count_column_sorts(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["eval", "--test", str(work / "toy.csv"), "--out", str(work / "no-sort"),
                     "--models", *models]) == 0
    assert sorted_arrays == []


def test_compare_unexpected_training_failure_exits_3(toy_corpus, tmp_path, monkeypatch,
                                                     capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evaluation, "build_nbtree", broken)
    code = main([
        "compare", *base_args(toy_corpus, tmp_path / "r"),
        "--test-fraction", "0.25", "--seed", "7",
    ])
    assert code == 3
    assert capsys.readouterr().err == "training error: RuntimeError: boom\n"
    assert not (tmp_path / "r").exists()


def test_unexpected_scoring_failure_exits_4(toy_models, tmp_path, monkeypatch, capfd):
    def broken(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    work, _, models = toy_models
    toy = work / "toy.csv"
    evaluate = ["eval", "--test", str(toy), "--models", *models]
    runs = [("eval", 1, evaluate), ("eval", 2, evaluate),
            ("compare", 1, ["compare", "--train", str(toy), "--weighting-min-leaf-examples", "2",
                            "--min-split-examples", "5", "--test-fraction", "0.25",
                            "--seed", "7"])]
    monkeypatch.setattr(NaiveBayesModel, "predict_dataset", broken)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 64)
    monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 4)
    for command, cpus, argv in runs:
        monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: cpus)
        # at two CPUs the test file is read and scored in two ranges
        assert len(dataset_module._byte_ranges(toy, kdd99_schema())) == cpus
        name, out = f"{command} at {cpus} CPUs", tmp_path / f"{command}-{cpus}"
        assert main([*argv, "--out", str(out)]) == 4, name
        err = capfd.readouterr().err
        assert err == "evaluation error: IndexError: index 7 is out of bounds\n", (name, err)
        assert not out.exists()


def test_unexpected_load_failure_exits_2(toy_models, tmp_path, monkeypatch, capfd):
    def broken(*args, **kwargs):
        if os.getpid() != home or cpus == 1:  # at two CPUs, in the forked range only
            raise IndexError("index 9 is out of bounds")
        return codes(*args, **kwargs)

    def no_process_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    home, codes = os.getpid(), dataset_module._codes
    work, _, models = toy_models
    toy = work / "toy.csv"
    runs = {"train": ["train", "--train", str(toy), "--weighting-min-leaf-examples", "2",
                      "--min-split-examples", "5"],
            "eval": ["eval", "--test", str(toy), "--models", *models],
            "compare": ["compare", "--train", str(toy), "--weighting-min-leaf-examples", "2",
                        "--min-split-examples", "5", "--test-fraction", "0.25", "--seed", "7"]}
    monkeypatch.setattr(dataset_module, "_codes", broken)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 64)
    monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 4)
    no_process_left()
    for cpus in (1, 2):
        monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: cpus)
        assert len(dataset_module._byte_ranges(toy, kdd99_schema())) == cpus
        for command, argv in runs.items():
            name, out = f"{command} at {cpus} CPUs", tmp_path / f"{command}-{cpus}"
            assert main([*argv, "--out", str(out)]) == 2, name
            err = capfd.readouterr().err
            assert err == (f"data error: cannot read record file {toy}: "
                           "IndexError: index 9 is out of bounds\n"), (name, err)
            assert not out.exists()
            no_process_left()


# -- one unexpected fault per stage ----------------------------------------------

_NO_PROCESS = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
_LOAD = "data error: cannot read record file {corpus}: "
_LOADS = ("inspect", "select", "train", "eval", "compare")
_TRAINS = ("train", "compare")
# stage -> (exit code, the line's start, the commands that run the stage,
# CPU counts, what to patch, the fault, the commands in which the stage
# forks at 2 CPUs). At one CPU a load is one range and nothing forks, so
# there is no fork to fail; a fork that fails in training needs a load of
# one range
_STAGES = {
    "read": (2, _LOAD, _LOADS, (1, 2), (dataset_module, "_codes"),
             IndexError("read fault"), _LOADS),
    "fork": (2, _LOAD, _LOADS, (2,), (os, "fork"), _NO_PROCESS, ()),
    "merge": (2, _LOAD, ("inspect", "select", "train", "compare"), (1, 2),
              (dataset_module._Reader, "dataset"), IndexError("merge fault"), ()),
    "sample": (2, "data error: cannot sample {corpus}: ", ("inspect", "select", "train", "compare"),
               (1, 2), (cli, "stratified_sample"), IndexError("sample fault"), ()),
    "split": (2, "data error: cannot split {corpus}: ", ("compare",), (1, 2),
              (cli, "stratified_split"), IndexError("split fault"), ()),
    "weighting": (3, "training error: ", ("select", "train", "compare"), (1, 2),
                  (attribute_weighting, "update_example_weights"),
                  IndexError("weighting fault"), ()),
    "build": (3, "training error: ", _TRAINS, (1, 2),
              (nbtree_module._BuildContext, "cut_utility"), IndexError("build fault"), _TRAINS),
    "baselines": (3, "training error: ", _TRAINS, (1, 2), (evaluation, "fit_naive_bayes"),
                  IndexError("baselines fault"), _TRAINS),
    "training-fork": (3, "training error: ", _TRAINS, (2,), (os, "fork"), _NO_PROCESS, ()),
    "scoring": (4, "evaluation error: ", ("eval", "compare"), (1, 2),
                (NaiveBayesModel, "predict_dataset"), IndexError("scoring fault"), ("eval",)),
    "out": (1, "error: cannot write run directory ", _LOADS, (1, 2), None, None, ()),
}


@pytest.fixture(scope="module")
def fault_work(tmp_path_factory):
    """A work directory, a 507-line synthetic KDD corpus, whose NB-tree
    searches its root in two processes at two CPUs, and the paths of the
    five models ``train`` writes from it."""
    work = tmp_path_factory.mktemp("faults")
    corpus = work / "kdd.csv"
    synth.write_kdd_corpus(corpus, seed=1, scale=0.001)
    assert main(["train", "--train", str(corpus), "--out", str(work / "train")]) == 0
    models = sorted(str(p) for p in (run_dir(work / "train") / "models").glob("*.json"))
    return work, corpus, models


@pytest.mark.parametrize("stage, command, cpus", [
    (stage, command, cpus) for stage, (_, _, commands, cpu_counts, *_) in _STAGES.items()
    for command in commands for cpus in cpu_counts])
def test_an_unexpected_fault_exits_with_its_stage_code(fault_work, monkeypatch, capfd, stage,
                                                       command, cpus):
    # the stage's fault, in a forked process where the stage forks, exits
    # with the stage's code and one line naming the fault's type, and
    # leaves no run directory and no process
    code, start, _, _, target, fault, forks_in = _STAGES[stage]
    work, corpus, models = fault_work
    out = work / f"{stage}-{command}-{cpus}"
    argv = {"eval": ["--test", str(corpus), "--models", *models],
            "compare": ["--train", str(corpus), "--test-fraction", "0.25", "--seed", "7"]
            }.get(command, ["--train", str(corpus)])
    if stage == "sample":
        argv += ["--sample-fraction", "0.5"] + ([] if command == "compare" else ["--seed", "1"])
    home = os.getpid()
    in_worker = cpus == 2 and command in forks_in

    def faulty(*args, **kwargs):
        if not in_worker or os.getpid() != home:
            raise fault
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(nbtree_module, "_SEARCH_ROWS", 0)
    if stage != "training-fork":
        monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 1024)
        monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 64)
    assert len(dataset_module._byte_ranges(corpus, kdd99_schema())) == (
        1 if stage == "training-fork" else cpus)
    if target is None:   # the output root is a file
        out.write_text("")
    else:
        real = getattr(*target)
        monkeypatch.setattr(*target, faulty)
    assert main([command, *argv, "--out", str(out)]) == code
    err = capfd.readouterr().err
    if fault is None:
        assert err.startswith(f"{start}{out}/run-") and err.count("\n") == 1, err
        assert ": NotADirectoryError: [Errno 20] Not a directory: " in err
    else:
        assert err == f"{start.format(corpus=corpus)}{type(fault).__name__}: {fault}\n"
        assert not out.exists()
    with pytest.raises(ChildProcessError):   # no child process is left
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, flag", [
    ("inspect", "--sample-fraction"), ("compare", "--test-fraction"),
])
def test_fraction_that_leaves_an_empty_part_exits_1(toy_corpus, tmp_path, capsys, command, flag):
    code = main([command, *base_args(toy_corpus, tmp_path / "r"), flag, "0.0001", "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{flag} 0.0001" in err


def test_compare_requires_seed_for_split(toy_corpus, tmp_path):
    code = main([
        "compare", *base_args(toy_corpus, tmp_path / "r"), "--test-fraction", "0.25",
    ])
    assert code == 1


def test_config_file_with_flag_overrides(toy_corpus, tmp_path):
    config = {
        "train": str(toy_corpus),
        "out": str(tmp_path / "ignored"),
        "seed": 3,
        "test_fraction": 0.25,
        "weighting_min_leaf_examples": 2,
        "min_split_examples": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "override"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
    rd = run_dir(out)
    resolved = json.loads((rd / "config.json").read_text())["config"]
    assert resolved["seed"] == 3
    assert "out" not in resolved


def test_unknown_config_key_exits_1(toy_corpus, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"trian": str(toy_corpus)}))
    assert main(["inspect", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("flag", ["--carry-weights", "--no-carry-weights",
                                  "--train-on-relabeled", "--no-train-on-relabeled"])
def test_nbtree_training_data_switches_are_gone(tmp_path, capsys, flag):
    # the NB-tree always trains on the posterior weights and load-time labels
    assert main(["train", "--train", str(tmp_path / "missing.csv"), flag]) == 1
    assert flag in capsys.readouterr().err
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({flag.lstrip("-").removeprefix("no-").replace("-", "_"): True}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc, named", [
    ({"permissive": "no"}, "'permissive'"),
    ({"bins": 2.5}, "'bins'"),
    ({"folds": 2.5}, "'folds'"),
    ({"bins": "10"}, "'bins'"),
    ({"seed": 1.5, "sample_fraction": 0.5}, "'seed'"),
    ({"smoothing_k": 10**400}, "'smoothing_k'"),
    ({"models": ["a.json", 1]}, "'models'"),
    ({"models": "a.json"}, "'models'"),
    ({"weighting_min_leaf_examples": None}, "'weighting_min_leaf_examples'"),
    (5, "JSON object"),
], ids=["bool-as-str", "int-as-float", "folds-as-float", "int-as-str", "seed-as-float",
        "int-too-large-for-float", "models-holding-a-number", "models-as-str", "null-leaf-floor",
        "not-an-object"])
def test_ill_typed_config_value_exits_1(toy_corpus, tmp_path, capsys, doc, named):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(cfg_path), *base_args(toy_corpus, tmp_path / "r")])
    assert code == 1
    assert named in capsys.readouterr().err


def test_huge_bins_trains(toy_corpus, tmp_path):
    # 10**29 overflows every numpy integer; the bins of a column with fewer
    # rows hold one value each. The small KDD corpus's NB-tree also bins
    # candidate children, which the toy corpus's never scores
    kdd = tmp_path / "kdd.csv"
    synth.write_kdd_corpus(kdd, seed=1, scale=0.004)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bins": 10**29}))
    for args in (base_args(toy_corpus, tmp_path / "toy"),
                 ["--train", str(kdd), "--out", str(tmp_path / "kdd")]):
        assert main(["train", "--config", str(cfg_path), *args]) == 0


@pytest.fixture(scope="module")
def config_work(toy_models):
    """A work directory, and a config document setting every ``RunConfig``
    key to a value on which ``inspect`` of the toy corpus exits 0."""
    work, _, models = toy_models
    work = work / "config"
    work.mkdir()
    (work / "kdd.schema").write_text(_schema_file_text())
    shutil.copy(Path(cli.__file__).parent / "data" / "kdd99.taxonomy", work / "kdd.taxonomy")
    doc = dataclasses.asdict(RunConfig(
        train=str(work.parent / "toy.csv"), test=str(work.parent / "toy.csv"),
        schema=str(work / "kdd.schema"), taxonomy=str(work / "kdd.taxonomy"),
        out=str(work / "runs"), seed=3, sample_fraction=0.5, test_fraction=0.25, models=models))
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["inspect", "--config", str(cfg_path)]) == 0
    return work, doc


_EXTREME_NUMBERS = [0, -1, 10**29, -10**29, 1e308, -1e308, 10**400]
_PATH_KEYS = ("train", "test", "schema", "taxonomy", "models")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_inspect_with_one_config_key_changed_exits_0_1_or_2(config_work, data):
    """One key of a valid config file dropped, of the wrong JSON type, an
    extreme number or null: ``inspect`` (which never trains, so a huge
    ``folds`` or ``bins`` allocates nothing) exits 0, 1 naming the key, or
    2 naming the file of a path key; never 3 or a traceback."""
    work, doc = config_work
    doc = dict(doc)
    key = data.draw(st.sampled_from(sorted(doc)), label="key")
    change = data.draw(st.sampled_from(["drop", "retype", "number", "null"]), label="change")
    if change == "drop":
        del doc[key]
    elif change == "number":
        doc[key] = data.draw(st.sampled_from(_EXTREME_NUMBERS), label="number")
    elif change == "null":
        doc[key] = None
    else:
        doc[key] = "x" if isinstance(doc[key], (bool, int, float)) else 1
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(work)   # a dropped ``out`` writes under the default root here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["inspect", "--config", str(cfg_path)])
    finally:
        os.chdir(here)
    err = err.getvalue()
    files = doc.get(key) if isinstance(doc.get(key), list) else [doc.get(key)]
    assert (code == 0
            or (code == 1 and (key in err or key == "out" and "run directory" in err))
            or (code == 2 and key in _PATH_KEYS and any(str(f) in err for f in files))), \
        (code, err)


@pytest.fixture(scope="module")
def input_files(toy_models):
    """A work directory, the toy corpus, and the lines of a valid schema
    file and of a valid taxonomy file (the built-in ones)."""
    work, _, _ = toy_models
    work = work / "input-files"
    work.mkdir()
    taxonomy = (Path(cli.__file__).parent / "data" / "kdd99.taxonomy").read_text()
    return work, work.parent / "toy.csv", {
        "schema": _schema_file_text().splitlines(keepends=True),
        "taxonomy": taxonomy.splitlines(keepends=True)}


@pytest.mark.parametrize("kind", ["schema", "taxonomy"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_inspect_with_one_input_file_line_changed_exits_0_or_2(input_files, kind, data):
    """One line of a valid schema or taxonomy file dropped, of another type
    (a schema attribute of the other kind, a taxonomy class that is a kind),
    holding an extreme number, or repeated: ``inspect``, strict or
    ``--permissive``, exits 0, or 2 naming the file, or the record file
    whose line disagrees with it (or, permissive, that keeps no line);
    never 3 or a traceback."""
    work, toy, valid = input_files
    lines = list(valid[kind])
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    change = data.draw(st.sampled_from(["drop", "retype", "number", "repeat"]), label="change")
    tokens = lines[i].split()
    if change == "drop":
        del lines[i]
    elif change == "repeat":
        lines.insert(i, lines[i])
    elif change == "number" and tokens:
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = data.draw(
            st.sampled_from(["0", "-1", str(10**29), "1e308", "-1e308", "1e400", "nan"]),
            label="number")
        lines[i] = " ".join(tokens) + "\n"
    elif change == "retype" and tokens:
        swap = {"discrete": "continuous", "continuous": "discrete"}
        tokens[-1] = swap.get(tokens[-1], "continuous")
        lines[i] = " ".join(tokens) + "\n"
    permissive = data.draw(st.booleans(), label="permissive")
    changed = work / f"changed.{kind}"
    changed.write_text("".join(lines))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["inspect", "--train", str(toy), "--out", str(work / "runs"),
                     f"--{kind}", str(changed), *(["--permissive"] if permissive else [])])
    err = err.getvalue()
    assert code == 0 or (code == 2 and (f"{changed}: " in err or f"{toy}: " in err)), (code, err)


@pytest.mark.parametrize("doc, flags", [
    ({"smoothing_k": 1}, ["--smoothing-k", "1"]),
    ({"weighting_min_leaf_examples": 30}, []),
    ({"test_fraction": None}, []),
], ids=["int-for-float", "int-restating-default", "null-for-optional-float"])
def test_config_file_number_hashes_as_flag(toy_corpus, tmp_path, doc, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    train = ["--train", str(toy_corpus)]
    assert main(["inspect", "--config", str(cfg_path), *train, "--out", str(tmp_path / "a")]) == 0
    assert main(["inspect", *flags, *train, "--out", str(tmp_path / "b")]) == 0
    assert run_dir(tmp_path / "a").name == run_dir(tmp_path / "b").name


def _flag(name):
    return "--" + name.replace("_", "-")


def _setting_cases():
    """(field, flag arguments, config-file value): a value other than the
    default for every field, and both values of every bool."""
    values = {str: "x.csv", int: 3, float: 0.25, list[str]: ["a.json", "b.json"]}
    for f in dataclasses.fields(RunConfig):
        if isinstance(f.default, bool):
            yield f.name, [_flag(f.name)], True
            yield f.name, ["--no-" + _flag(f.name)[2:]], False
        else:
            hint = typing.get_type_hints(RunConfig)[f.name]
            value = values[(typing.get_args(hint) or (hint,))[0]]
            words = value if isinstance(value, list) else [value]
            yield f.name, [_flag(f.name), *map(str, words)], value


@pytest.mark.parametrize("name, flags, value", list(_setting_cases()),
                         ids=[" ".join(c[1]) for c in _setting_cases()])
def test_every_setting_hashes_alike_as_flag_and_config_key(tmp_path, name, flags, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({name: value}))
    parser = build_parser()
    from_flag = _load_config(parser.parse_args(["inspect", *flags]))
    from_file = _load_config(parser.parse_args(["inspect", "--config", str(cfg_path)]))
    assert getattr(from_flag, name) == value
    assert from_flag == from_file
    assert from_flag.config_hash() == from_file.config_hash()


def test_parser_offers_exactly_the_settings_flags():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"inspect", "select", "train", "eval", "compare"}
    fields = dataclasses.fields(RunConfig)
    expected = {_flag(f.name) for f in fields} | {"--config"} | {
        "--no-" + _flag(f.name)[2:] for f in fields if isinstance(f.default, bool)}
    for name, sub in commands.choices.items():
        offered = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert offered == expected, name


def test_config_hash_is_stable_and_excludes_out():
    a = RunConfig(train="x.csv", seed=1, out="here")
    b = RunConfig(train="x.csv", seed=1, out="elsewhere")
    c = RunConfig(train="x.csv", seed=2, out="here")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_data_dir_env_var_resolves_relative_paths(toy_corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NBTREE_IDS_DATA", str(toy_corpus.parent))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")  # the bare name must not resolve locally
    out = tmp_path / "runs"
    assert main(["inspect", "--train", toy_corpus.name, "--out", str(out)]) == 0
    doc = json.loads((run_dir(out) / "composition.json").read_text())
    assert doc["total"] == 80
    assert f"dataset: {toy_corpus}\n" in capsys.readouterr().out


def _schema_file_text() -> str:
    """The built-in schema written as a schema file."""
    schema = kdd99_schema()
    return "".join([f"classes: {' '.join(schema.class_names)}\n",
                    *(f"{a.name}: {a.kind}\n" for a in schema.attributes)])


@pytest.mark.parametrize("argv, code, named", [
    (["inspect", "--train", "{toy}", "--schema", "{work}/kdd.schema"], 0, "dataset: {toy}"),
    (["inspect", "--train", "{toy}", "--schema", "{work}/none.schema"], 2,
     "cannot read schema file {work}/none.schema"),
    (["inspect", "--train", "{toy}", "--taxonomy", "{work}/none.taxonomy"], 2,
     "cannot read taxonomy file {work}/none.taxonomy"),
    (["inspect", "--train", "{toy}", "--schema", "{work}/bad.schema",
      "--taxonomy", "{work}/kdd.taxonomy"], 2,
     "{work}/bad.schema: expected 'name: kind' at line 3 of schema file"),
    (["inspect", "--train", "{toy}", "--schema", "{work}/kdd.schema",
      "--taxonomy", "{work}/bad.taxonomy"], 2,
     "{work}/bad.taxonomy: expected 'raw_name class' at line 2 of taxonomy file"),
    (["inspect", "--train", "{toy}", "--taxonomy", "{work}/empty.taxonomy"], 2,
     "data error: {work}/empty.taxonomy: empty attack taxonomy\n"),
    (["train", "--train", "{work}/bad.csv"], 2, "expected 42 fields, got 3 at line 81"),
    (["compare", "--train", "{toy}", "--test-fraction", "1.5", "--seed", "1"], 1,
     "test_fraction must be in (0, 1)"),
    (["compare", "--train", "{toy}"], 1, "provide --test or --test-fraction"),
    (["inspect", "--config", "{work}/none.json"], 1, "cannot read config file {work}/none.json"),
    (["inspect", "--config", "{work}/latin-1.json"], 1,
     "cannot read config file {work}/latin-1.json"),
    (["eval", "--test", "{toy}", "--models", "{work}/none.json"], 2,
     "cannot read model file {work}/none.json"),
    (["eval", "--test", "{toy}", "--models", "{work}/odd.json"], 2,
     "unrecognised model format 'odd/1' in {work}/odd.json"),
    (["eval", "--test", "{toy}", "--models", "{work}/latin-1.json"], 2,
     "cannot read model file {work}/latin-1.json: UnicodeDecodeError: "),
    (["eval", "--test", "{toy}", "--models", "{work}/deep.json"], 2,
     "cannot read model file {work}/deep.json: RecursionError: "),
    (["inspect", "--train", "{toy}", "--out", "{toy}"], 1,
     "cannot write run directory {toy}/run-"),
], ids=["schema-file", "unreadable-schema-file", "unreadable-taxonomy-file",
        "bad-schema-line", "bad-taxonomy-line", "empty-taxonomy-file", "train-bad-line",
        "fraction-outside-0-1", "no-test-and-no-fraction", "unreadable-config", "config-not-utf-8",
        "unreadable-model-file", "unknown-model-format", "model-file-not-utf-8",
        "model-file-nested-too-deep", "out-is-a-file"])
def test_cli_path_exits_and_names(toy_corpus, tmp_path, capsys, argv, code, named):
    (tmp_path / "kdd.schema").write_text(_schema_file_text())
    header, first, *rest = _schema_file_text().splitlines(keepends=True)
    (tmp_path / "bad.schema").write_text("".join([header, first, "no_kind\n", *rest]))
    taxonomy = (Path(cli.__file__).parent / "data" / "kdd99.taxonomy").read_text()
    (tmp_path / "kdd.taxonomy").write_text(taxonomy)
    (tmp_path / "bad.taxonomy").write_text("normal Normal\nneptune\n")
    (tmp_path / "empty.taxonomy").write_text("# no attack names\n\n")
    (tmp_path / "bad.csv").write_text(toy_corpus.read_text() + "0,tcp,http\n")
    (tmp_path / "odd.json").write_text(json.dumps({"format": "odd/1"}))
    (tmp_path / "latin-1.json").write_bytes(b'{"train": "caf\xe9.csv"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    fill = [arg.format(toy=toy_corpus, work=tmp_path) for arg in argv]
    # a later --out overrides this one
    assert main([fill[0], "--out", str(tmp_path / "r"), *fill[1:]]) == code
    printed = capsys.readouterr()
    assert named.format(toy=toy_corpus, work=tmp_path) in (printed.err or printed.out)
    # only a command that succeeds makes a run directory
    assert (tmp_path / "r").exists() == (code == 0)


def test_readme_names_every_long_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    # a flag ends at a letter, so the --<name>/--no-<name> template names none
    named = set(re.findall(r"(?<![\w-])--[a-z]+(?:-[a-z]+)*(?![\w<-])", section))
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    missing, offered = set(), set()
    for sub in commands.choices.values():
        for action in sub._actions:
            names = [o for o in action.option_strings if o.startswith("--") and o != "--help"]
            offered.update(names)
            if names and not named.intersection(names):
                missing.add(names[0])
    assert not missing, f"README.md's Command line section does not name {sorted(missing)}"
    assert not named - offered, f"README.md names flags no command takes: {sorted(named - offered)}"
