"""Output checks for benchmark runs.

Every timed run must exit 0, leave exactly one run directory, show the
expected confusion total in every report, write models that reload, and
produce the same artifacts as the workload's first run once timing is
stripped (the comparison of acceptance criterion 8). Outside the timed
region, batch scoring is checked against per-example scoring on a seeded
sample of rows. These functions need ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from nbtree_ids.cli import load_model_file
from nbtree_ids.dataset import load_dataset, project_attributes
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy
from nbtree_ids.nbtree import NBTree, classify_nbtree
from nbtree_ids.probability import NaiveBayesModel, classify_nb


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "wall_clock_sec"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def _comparable(path: Path) -> bytes | str:
    if path.suffix == ".json":
        return json.dumps(strip_timing(json.loads(path.read_text())), sort_keys=True)
    if path.parent.name == "reports":
        return "\n".join(ln for ln in path.read_text().splitlines() if "wall:" not in ln)
    return path.read_bytes()


def artifact_mismatches(run_a: Path, run_b: Path) -> list[str]:
    """Artifacts that differ between two run directories, timing aside."""
    if run_a.name != run_b.name:
        return [f"config hash {run_a.name} != {run_b.name}"]

    def files(run):
        return {p.relative_to(run) for p in run.rglob("*")
                if p.is_file() and p.name != "run_info.json"}

    fa, fb = files(run_a), files(run_b)
    bad = [f"only in one run: {p}" for p in sorted(fa ^ fb)]
    bad += [str(p) for p in sorted(fa & fb) if _comparable(run_a / p) != _comparable(run_b / p)]
    return bad


def run_directory(out_root: Path) -> Path:
    runs = list(out_root.glob("run-*"))
    if len(runs) != 1:
        raise ValueError(f"{out_root} holds {len(runs)} run directories, expected 1")
    return runs[0]


def report_problems(run_dir: Path, test_rows: int | None, model_ids) -> list[str]:
    """Every report's confusion total must equal the test size."""
    if test_rows is None:
        return []
    problems = []
    found = set()
    for path in sorted((run_dir / "reports").glob("*.json")):
        doc = json.loads(path.read_text())
        found.add(doc["model_id"])
        total = int(np.sum(doc["confusion"]["counts"]))
        if total != test_rows:
            problems.append(f"{path.name}: confusion total {total} != {test_rows}")
    if found != set(model_ids):
        problems.append(f"reports for {sorted(found)}, expected {sorted(model_ids)}")
    return problems


def load_models(models_dir: Path, model_ids) -> dict:
    """Reload every model file through the command line's own loader."""
    return {mid: load_model_file(models_dir / f"{mid}.json") for mid in model_ids}


def sample_rows(corpus: Path, lines: int, seed: int, size: int):
    """A seeded sample of the corpus's ``lines`` lines, loaded permissively
    so that an injected bad line in the sample is skipped."""
    picks = set(np.random.default_rng(seed).choice(lines, size=size, replace=False).tolist())
    chosen, count = [], 0
    with open(corpus, encoding="utf-8") as fh:
        for count, line in enumerate(fh, 1):
            if count - 1 in picks:
                chosen.append(line)
    if count != lines:
        raise ValueError(f"{corpus} has {count} lines, expected {lines}")
    return load_dataset(chosen, kdd99_schema(), kdd99_taxonomy(), permissive=True)


def for_model(model, dataset):
    """The dataset restricted to the attributes a model was trained on."""
    if model.schema_hash == dataset.schema.structural_hash():
        return dataset
    return project_attributes(dataset, model.attribute_names)


def reference_problems(models: dict, sample) -> list[str]:
    """Batch ``predict_dataset`` must agree with per-example classification
    for the naive-Bayes models and the NB-tree."""
    problems = []
    for mid, model in models.items():
        if isinstance(model, NaiveBayesModel):
            def one(ex, model=model):
                return classify_nb(ex, model)
        elif isinstance(model, NBTree):
            def one(ex, model=model):
                return classify_nbtree(model, ex)[0]
        else:
            continue
        ds = for_model(model, sample)
        batch = model.predict_dataset(ds)
        disagree = sum(model.classes[int(batch[i])] != one(ds.example(i)) for i in range(ds.n))
        if disagree:
            problems.append(f"{mid}: batch and per-example scoring differ on "
                            f"{disagree} of {ds.n} rows")
    return problems


def quality(reports: list[dict]) -> dict:
    """Macro DR over classes with support, Normal DR and normal FP per model."""
    out = {}
    for doc in reports:
        drs = [row["dr"] for row in doc["per_class"] if row["dr"] is not None]
        normal = [row["dr"] for row in doc["per_class"] if row["class"] == "Normal"]
        out[doc["model_id"]] = {
            "macro_dr": sum(drs) / len(drs),
            "normal_dr": normal[0] if normal else None,
            "normal_fp": doc["normal_fp"],
        }
    return out
