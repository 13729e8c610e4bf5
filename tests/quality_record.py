"""Quality record of the five models of ``compare``, on the test set and on
the complement, for the six desk seeds, with McNemar's counts of each
baseline against the proposed NB-tree on the complement.

Run from the root of a checkout; it trains with that checkout's sources:

    python tests/quality_record.py --corpus corpus.csv --label "best 3 cuts" \\
        --out BENCH_quality.json
    python tests/quality_record.py --corpus corpus.csv --label "variant --no-relabel" \\
        --out BENCH_quality.json -- --no-relabel

``--corpus`` is the acceptance corpus (``synth.write_kdd_corpus``, corpus
seed 20240501, 494,020 records); it is written there first when the file
does not exist. Any arguments after ``--`` are ``compare`` flags (or a
``--config`` file) that change model settings: they are parsed, typed and
range-checked by the command-line parser, so a bad or unknown one fails
as ``compare`` would, naming the setting. The record sets the records,
the sample, the split and the seed itself, and trains every baseline, so
flags for those are refused. For each seed (42, 1..5) the run draws the
``compare`` sample and split of the ``compare-desk`` workload
(``--sample-fraction 0.1 --test-fraction 0.3 --seed S``, every model
setting at its ``RunConfig`` default unless a flag changes it) and trains
the five models as ``compare`` does. It
scores each model on the test set and on the complement: the records the
10% sample leaves out, ``stratified_split(full, 0.1, seed).train``. The
complement holds about 1,000 R2L and 47 U2R records where the test holds
34 and 2, so it can rank two models that the test macro DR cannot tell
apart.

Each model and set records its confusion matrix, per-class DR, the lowest
per-class DR (a one-class collapse cannot hide in a mean), macro DR, normal
FP and the error count. Each baseline also records, on the complement,
McNemar's discordant counts against a reference, the proposed model:
``b`` rows the reference gets right and the baseline wrong, ``c`` the
reverse, and the exact two-sided binomial p of b against c (Dietterich,
Neural Computation 10(7), 1998), 0.0 where it is below the least
positive double. When the flags change a setting, each seed also trains
the defaults' proposed model, and the variant's proposed model records
the same counts with that model as its reference. The result goes into
``--out`` under ``--label``, with the flags, beside the labels already
there. Every number repeats exactly between runs; no timing is recorded.
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
from nbtree_ids.cli import RunConfig, _load_config, build_parser  # noqa: E402
from nbtree_ids.dataset import load_dataset, stratified_sample, stratified_split  # noqa: E402
from nbtree_ids.evaluation import (  # noqa: E402
    ComparisonConfig, EvalReport, evaluate, project_for_model, train_models,
)
from nbtree_ids.exceptions import ConfigError  # noqa: E402
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy  # noqa: E402

SEEDS = (42, 1, 2, 3, 4, 5)
CORPUS_SEED = 20240501
SAMPLE_FRACTION = 0.1
TEST_FRACTION = 0.3
PROPOSED = "proposed-nbtree"
BASELINES = ("nb-full", "nb-reduced", "tree-full", "tree-reduced")
MODELS = (PROPOSED, *BASELINES)
# the RunConfig fields the record sets itself, so no flag may change them
FIXED = ("train", "test", "schema", "taxonomy", "out", "seed", "sample_fraction",
         "test_fraction", "permissive", "baselines", "models")


def run_config(flags: list[str]) -> RunConfig:
    """The ``RunConfig`` that ``compare`` builds from ``flags``. Raises
    :class:`ConfigError`, as ``compare`` would, for a bad or unknown flag,
    and for one that sets a ``FIXED`` field."""
    config = _load_config(build_parser().parse_args(["compare", *flags]))
    fixed = [name for name in FIXED if getattr(config, name) != getattr(RunConfig(), name)]
    if fixed:
        raise ConfigError(f"the record sets {fixed} itself")
    return config


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


def mcnemar(reference_right, model_right) -> dict:
    """McNemar's discordant counts of a model against a reference on the
    same rows (``b``: the reference right and the model wrong; ``c``: the
    reverse), and the exact two-sided binomial p of b against c."""
    b = int((reference_right & ~model_right).sum())
    c = int((~reference_right & model_right).sum())
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return {"b": b, "c": c, "p": min(1.0, float(Fraction(2 * tail, 2**n)))}


def correct(model, dataset):
    """Which rows of ``dataset`` ``model`` predicts right."""
    seen = project_for_model(model, dataset)
    return model.predict_dataset(seen) == seen.labels


def record_seed(full, seed: int, config: RunConfig | None = None) -> dict:
    """One seed's record of the five models ``config`` (default: the
    defaults) trains; a variant's proposed model also records McNemar's
    counts against the defaults' proposed model on the complement."""
    config = config or RunConfig()
    split = stratified_split(stratified_sample(full, SAMPLE_FRACTION, seed), TEST_FRACTION, seed)
    _, models = train_models(split.train, config.comparison_config())
    stats = models[PROPOSED].build_stats
    complement = stratified_split(full, SAMPLE_FRACTION, seed).train
    out = {"nbtree": {key: stats[key] for key in ("nodes", "split_searches", "children_scored")}}
    right = {}
    for mid in MODELS:
        out[mid] = {"test": scored(evaluate(models[mid], split.test)),
                    "complement": scored(evaluate(models[mid], complement))}
        right[mid] = correct(models[mid], complement)
    for mid in BASELINES:
        out[mid]["complement_mcnemar"] = mcnemar(right[PROPOSED], right[mid])
    if config != RunConfig():
        _, defaults = train_models(split.train, ComparisonConfig(baselines=False))
        out[PROPOSED]["complement_mcnemar"] = mcnemar(
            correct(defaults[PROPOSED], complement), right[PROPOSED])
    return out


def summary(seeds: dict) -> dict:
    """Per model: the test macro DR of each seed, and on the complement the
    mean macro DR, the lowest per-class DR of any seed, the errors of all
    seeds and the mean normal FP; per model that has them also each seed's
    McNemar b, c and p against its reference."""
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
        if "complement_mcnemar" in seeds[str(SEEDS[0])][mid]:
            tests = [seeds[str(s)][mid]["complement_mcnemar"] for s in SEEDS]
            out[mid].update({f"complement_mcnemar_{k}": [t[k] for t in tests]
                             for k in ("b", "c", "p")})
    out["children_scored"] = [seeds[str(s)]["nbtree"]["children_scored"] for s in SEEDS]
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    own, flags = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0],
                                     usage="%(prog)s --corpus C --label L --out F [-- FLAG ...]")
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--label", required=True, help="what this checkout's run does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(own)
    try:
        config = run_config(flags)
    except ConfigError as exc:
        parser.error(f"compare flags: {exc}")
    if not args.corpus.exists():
        synth.write_kdd_corpus(args.corpus, seed=CORPUS_SEED)
    full = load_dataset(args.corpus, kdd99_schema(), kdd99_taxonomy())
    seeds = {str(seed): record_seed(full, seed, config) for seed in SEEDS}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["what"] = __doc__.split("\n\n", 1)[0].replace("\n", " ")
    doc["settings"] = {"corpus_seed": CORPUS_SEED, "records": full.n, "seeds": list(SEEDS),
                       "sample_fraction": SAMPLE_FRACTION, "test_fraction": TEST_FRACTION,
                       "config": "RunConfig() defaults, changed by a run's flags"}
    doc.setdefault("runs", {})[args.label] = {"flags": flags, "summary": summary(seeds),
                                              "seeds": seeds}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({args.label: doc["runs"][args.label]["summary"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
