"""Quality record of the five models of ``compare``, on the test set and on
the complement, for the six desk seeds, with McNemar's counts of each
baseline against the proposed NB-tree on the complement.

Run from the root of a checkout; it trains with that checkout's sources:

    python tests/quality_record.py --corpus corpus.csv --label "best 3 cuts" \\
        --out BENCH_quality.json

``--corpus`` is the acceptance corpus (``synth.write_kdd_corpus``, corpus
seed 20240501, 494,020 records); it is written there first when the file
does not exist. For each seed (42, 1..5) the run draws the ``compare``
sample and split of the ``compare-desk`` workload (``--sample-fraction
0.1 --test-fraction 0.3 --seed S``, every model setting at its
``RunConfig`` default) and trains the five models as ``compare`` does. It
scores each model on the test set and on the complement: the records the
10% sample leaves out, ``stratified_split(full, 0.1, seed).train``. The
complement holds about 1,000 R2L and 47 U2R records where the test holds
34 and 2, so it can rank two models that the test macro DR cannot tell
apart.

Each model and set records its confusion matrix, per-class DR, the lowest
per-class DR (a one-class collapse cannot hide in a mean), macro DR, normal
FP and the error count. Each baseline also records, on the complement,
McNemar's discordant counts against the proposed model: ``b`` rows the
proposed model gets right and the baseline wrong, ``c`` the reverse, and
the exact two-sided binomial p of b against c (Dietterich, Neural
Computation 10(7), 1998), 0.0 where it is below the least positive
double. The result goes into ``--out`` under ``--label``, beside the
labels already there. Every number repeats exactly between runs; no
timing is recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import synth  # noqa: E402
from nbtree_ids.cli import RunConfig  # noqa: E402
from nbtree_ids.dataset import load_dataset, stratified_sample, stratified_split  # noqa: E402
from nbtree_ids.evaluation import (  # noqa: E402
    EvalReport, evaluate, project_for_model, train_models,
)
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy  # noqa: E402

SEEDS = (42, 1, 2, 3, 4, 5)
CORPUS_SEED = 20240501
SAMPLE_FRACTION = 0.1
TEST_FRACTION = 0.3
PROPOSED = "proposed-nbtree"
BASELINES = ("nb-full", "nb-reduced", "tree-full", "tree-reduced")
MODELS = (PROPOSED, *BASELINES)


def scored(report: EvalReport) -> dict:
    """What the record keeps of one report."""
    dr = {row["class"]: row["dr"] for row in report.per_class}
    present = [v for v in dr.values() if v is not None]
    counts = report.matrix.counts
    return {
        "rows": int(counts.sum()),
        "errors": int(counts.sum() - counts.trace()),
        "macro_dr": sum(present) / len(present),
        "lowest_dr": min(present),
        "normal_fp": report.normal_fp,
        "dr": dr,
        "confusion": counts.tolist(),
    }


def mcnemar(proposed_right, baseline_right) -> dict:
    """McNemar's discordant counts of a baseline against the proposed model
    on the same rows, and the exact two-sided binomial p of b against c."""
    b = int((proposed_right & ~baseline_right).sum())
    c = int((~proposed_right & baseline_right).sum())
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return {"b": b, "c": c, "p": min(1.0, float(Fraction(2 * tail, 2**n)))}


def record_seed(full, seed: int) -> dict:
    config = RunConfig().comparison_config()
    split = stratified_split(stratified_sample(full, SAMPLE_FRACTION, seed), TEST_FRACTION, seed)
    _, models = train_models(split.train, config)
    stats = models[PROPOSED].build_stats
    complement = stratified_split(full, SAMPLE_FRACTION, seed).train
    out = {"nbtree": {key: stats[key] for key in ("nodes", "split_searches", "children_scored")}}
    right = {}
    for mid in MODELS:
        out[mid] = {"test": scored(evaluate(models[mid], split.test)),
                    "complement": scored(evaluate(models[mid], complement))}
        seen = project_for_model(models[mid], complement)
        right[mid] = models[mid].predict_dataset(seen) == seen.labels
    for mid in BASELINES:
        out[mid]["complement_mcnemar"] = mcnemar(right[PROPOSED], right[mid])
    return out


def summary(seeds: dict) -> dict:
    """Per model: the test macro DR of each seed, and on the complement the
    mean macro DR, the lowest per-class DR of any seed, the errors of all
    seeds and the mean normal FP; per baseline also each seed's McNemar b,
    c and p against the proposed model."""
    out = {}
    for mid in MODELS:
        test = [seeds[str(s)][mid]["test"] for s in SEEDS]
        comp = [seeds[str(s)][mid]["complement"] for s in SEEDS]
        out[mid] = {
            "test_macro_dr": [r["macro_dr"] for r in test],
            "test_lowest_dr": min(r["lowest_dr"] for r in test),
            "complement_mean_macro_dr": statistics.mean(r["macro_dr"] for r in comp),
            "complement_lowest_dr": min(r["lowest_dr"] for r in comp),
            "complement_errors": sum(r["errors"] for r in comp),
            "complement_mean_normal_fp": statistics.mean(r["normal_fp"] for r in comp),
        }
        if mid in BASELINES:
            tests = [seeds[str(s)][mid]["complement_mcnemar"] for s in SEEDS]
            out[mid].update({f"complement_mcnemar_{k}": [t[k] for t in tests]
                             for k in ("b", "c", "p")})
    out["children_scored"] = [seeds[str(s)]["nbtree"]["children_scored"] for s in SEEDS]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--label", required=True, help="what this checkout's search does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not args.corpus.exists():
        synth.write_kdd_corpus(args.corpus, seed=CORPUS_SEED)
    full = load_dataset(args.corpus, kdd99_schema(), kdd99_taxonomy())
    seeds = {str(seed): record_seed(full, seed) for seed in SEEDS}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["what"] = __doc__.split("\n\n", 1)[0].replace("\n", " ")
    doc["settings"] = {"corpus_seed": CORPUS_SEED, "records": full.n, "seeds": list(SEEDS),
                       "sample_fraction": SAMPLE_FRACTION, "test_fraction": TEST_FRACTION,
                       "config": "RunConfig() defaults"}
    doc.setdefault("runs", {})[args.label] = {"summary": summary(seeds), "seeds": seeds}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({args.label: doc["runs"][args.label]["summary"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
