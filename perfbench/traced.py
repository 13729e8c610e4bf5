"""Run the nbtree-ids command line with spans around its public layers.

    python perfbench/traced.py SPANS.json <nbtree-ids arguments...>

The public functions and methods in ``TRACED`` are wrapped in every
``nbtree_ids`` module that looks them up by name, then ``cli.main`` runs.
Each call records a span (id, name, start, end, parent span, counts) in
memory; the spans are written to SPANS.json when ``main`` returns. Private
helpers are never wrapped: their names are expected to change as the
internals are rewritten, and a wrapper on a vanished name would silently
stop counting. The program itself is unchanged, so its artifacts must match
an untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loaded(_args, ds) -> dict:
    report = ds.load_report
    return {"records": ds.n, "skipped": report.skipped if report is not None else 0}


def _rows(args, _result) -> dict:
    return {"rows": args[1].n}


def _selection(_args, result) -> dict:
    return {"tree_nodes": result.tree.node_count(),
            "kept": len(result.weights.kept_names())}


def _tree(_args, tree) -> dict:
    return {"nodes": tree.node_count()}


def _nbtree(_args, tree) -> dict:
    return {"nodes": tree.node_count(), "leaves": len(tree.leaf_sizes())}


# module -> {public function or Class.method: counts taken from (args, result)}
TRACED = {
    "nbtree_ids.dataset": {
        "load_dataset": _loaded, "stratified_sample": None, "stratified_split": None,
    },
    "nbtree_ids.probability": {
        "fit_naive_bayes": None, "NaiveBayesModel.predict_dataset": _rows,
    },
    "nbtree_ids.attribute_weighting": {
        "select_attributes": _selection, "build_weighted_tree": _tree,
        "DecisionTree.predict_dataset": _rows,
    },
    "nbtree_ids.nbtree": {"build_nbtree": _nbtree, "NBTree.predict_dataset": _rows},
    "nbtree_ids.evaluation": {
        "train_models": None, "run_comparison": None, "evaluate": None,
    },
    "nbtree_ids.cli": {"main": None},
}


class Tracer:
    """Spans of one single-threaded run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every TRACED name where it is defined and wherever another
        nbtree_ids module imported it."""
        for module_name in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "nbtree_ids" or n.startswith("nbtree_ids.")]
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[1]
            for qualname, counts in names.items():
                span_name = f"{short}.{qualname}"
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(span_name, cls.__dict__[method], counts))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(span_name, original, counts)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced run. A span's self time is
    its duration minus that of its direct children; calls run one at a time,
    so children never overlap."""
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        name = s["name"]
        own[name] = own.get(name, 0.0) + s["end"] - s["start"] - child_time[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s.get("counts", {}).items():
            counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value

    def t(*names):
        """Time in spans of these names, not counting one nested in another
        (``stratified_sample`` calls ``stratified_split``)."""
        seconds = 0.0
        for s in spans:
            if s["name"] not in names:
                continue
            parent = s["parent"]
            while parent is not None and spans[parent]["name"] not in names:
                parent = spans[parent]["parent"]
            if parent is None:
                seconds += s["end"] - s["start"]
        return seconds

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    loaded = counts.get("dataset.load_dataset:records", 0)
    skipped = counts.get("dataset.load_dataset:skipped", 0)
    m = {
        "dataset.load_s": t("dataset.load_dataset"),
        "dataset.load_records_per_s": rate(loaded + skipped, t("dataset.load_dataset")),
        "dataset.records_loaded": loaded,
        "dataset.records_skipped": skipped,
        "dataset.split_s": t("dataset.stratified_sample", "dataset.stratified_split"),
        "attribute_weighting.select_s": t("attribute_weighting.select_attributes"),
        "attribute_weighting.select_self_s": own.get("attribute_weighting.select_attributes", 0.0),
        "attribute_weighting.tree_build_s": t("attribute_weighting.build_weighted_tree"),
        "attribute_weighting.tree_nodes":
            counts.get("attribute_weighting.select_attributes:tree_nodes", 0),
        "attribute_weighting.kept_attributes":
            counts.get("attribute_weighting.select_attributes:kept", 0),
        "probability.fit_s": t("probability.fit_naive_bayes"),
        "probability.fit_calls": calls.get("probability.fit_naive_bayes", 0),
        "nbtree.build_s": t("nbtree.build_nbtree"),
        "nbtree.build_self_s": own.get("nbtree.build_nbtree", 0.0),
        "nbtree.nodes": counts.get("nbtree.build_nbtree:nodes", 0),
        "nbtree.leaves": counts.get("nbtree.build_nbtree:leaves", 0),
    }
    for layer, cls in (("probability", "NaiveBayesModel"),
                       ("attribute_weighting", "DecisionTree"), ("nbtree", "NBTree")):
        name = f"{layer}.{cls}.predict_dataset"
        m[f"{layer}.predict_s"] = t(name)
        m[f"{layer}.predict_rows_per_s"] = rate(counts.get(f"{name}:rows", 0), t(name))
    m.update({
        "evaluation.train_models_s": t("evaluation.train_models"),
        "evaluation.evaluate_s": t("evaluation.evaluate"),
        "cli.self_s": own.get("cli.main", 0.0),
        "trace.main_s": t("cli.main"),
        "trace.spans": len(spans),
    })
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    tracer.install()
    from nbtree_ids import cli
    try:
        return cli.main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
