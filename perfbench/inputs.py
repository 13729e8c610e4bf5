"""Workload definitions and input generation for the benchmark.

Each workload runs one ``python -m nbtree_ids.cli`` command on inputs made
here from ``tests/synth.write_kdd_corpus``. Run as a script, this module
sets up one workload's inputs in a directory:

    python perfbench/inputs.py <workload> <seed> <dir>

The corpora have fixed corpus seeds, so every workload sees the same
records on every run: the NB-tree's size, and with it the build time,
changes about twofold between corpus seeds, which would swamp the gains
the benchmark exists to show. ``--seed`` picks where the bad lines of
``eval-full`` go and what they are, and which rows the reference check
samples.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

DESK_CORPUS_SEED = 20240501   # the acceptance corpus of criteria 6 to 8
DESK_RECORDS = 494_020
SMALL_CORPUS_SEED = 1
SMALL_SCALE = 0.1
SMALL_RECORDS = 49_404
BAD_LINES_PER_KIND = 8
BAD_KINDS = ("field-count", "bad-number", "unknown-attack")

MODEL_IDS = ("proposed-nbtree", "nb-full", "tree-full", "nb-reduced", "tree-reduced")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]        # CLI arguments, relative to the work dir, without --out
    input_lines: int             # lines the command reads
    test_rows: int | None        # confusion total every report must show
    writes_models: bool
    check_corpus: str            # file the reference check samples rows from
    corpus: dict                 # corpus seeds and sizes, for the record


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="compare-desk",
            argv=("compare", "--train", "corpus.csv", "--sample-fraction", "0.1",
                  "--test-fraction", "0.3", "--seed", "42"),
            input_lines=DESK_RECORDS,
            test_rows=14_821,
            writes_models=True,
            check_corpus="corpus.csv",
            corpus={"corpus.csv": {"seed": DESK_CORPUS_SEED, "scale": 1.0,
                                   "records": DESK_RECORDS}},
        ),
        Workload(
            name="train-small",
            argv=("train", "--train", "train.csv"),
            input_lines=SMALL_RECORDS,
            test_rows=None,
            writes_models=True,
            check_corpus="train.csv",
            corpus={"train.csv": {"seed": SMALL_CORPUS_SEED, "scale": SMALL_SCALE,
                                  "records": SMALL_RECORDS}},
        ),
        Workload(
            name="eval-full",
            argv=("eval", "--permissive", "--test", "test.csv", "--models",
                  *(f"models/{m}.json" for m in MODEL_IDS)),
            input_lines=DESK_RECORDS + BAD_LINES_PER_KIND * len(BAD_KINDS),
            test_rows=DESK_RECORDS,
            writes_models=False,
            check_corpus="test.csv",
            corpus={
                "test.csv": {"seed": DESK_CORPUS_SEED, "scale": 1.0,
                             "records": DESK_RECORDS,
                             "bad_lines": {k: BAD_LINES_PER_KIND for k in BAD_KINDS}},
                "train.csv (models)": {"seed": SMALL_CORPUS_SEED, "scale": SMALL_SCALE,
                                       "records": SMALL_RECORDS},
            },
        ),
    )
}


def program_env() -> dict:
    """Environment for a program process: the checkout's sources only."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _continuous_columns() -> list[int]:
    from nbtree_ids.kdd99 import kdd99_schema
    return [j for j, a in enumerate(kdd99_schema().attributes) if not a.is_discrete]


def corrupt(line: str, kind: str, rng: np.random.Generator, tag: int) -> str:
    """A bad copy of a good record line. Its discrete values stay those of
    the good line, so a permissive load skips it without extending any
    symbol domain."""
    fields = line.rstrip("\n").split(",")
    if kind == "field-count":
        del fields[int(rng.integers(len(fields) - 1))]
    elif kind == "bad-number":
        cols = _continuous_columns()
        j = cols[int(rng.integers(len(cols)))]
        fields[j] = fields[j] + "?"          # never nan or inf: those parse today
    elif kind == "unknown-attack":
        fields[-1] = f"unknown_attack_{tag}."
    else:
        raise ValueError(kind)
    return ",".join(fields) + "\n"


def inject_bad_lines(clean: Path, out: Path, seed: int) -> None:
    """Copy ``clean`` to ``out`` with BAD_LINES_PER_KIND lines of each kind
    inserted at seeded positions."""
    rng = np.random.default_rng(seed)
    lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    kinds = [k for k in BAD_KINDS for _ in range(BAD_LINES_PER_KIND)]
    rng.shuffle(kinds)
    positions = np.sort(rng.choice(len(lines), size=len(kinds), replace=False))
    bad = {
        int(pos): corrupt(lines[int(rng.integers(len(lines)))], kind, rng, tag)
        for tag, (pos, kind) in enumerate(zip(positions, kinds))
    }
    with open(out, "w", encoding="utf-8") as fh:
        start = 0
        for pos in sorted(bad):
            fh.writelines(lines[start:pos])
            fh.write(bad[pos])
            start = pos
        fh.writelines(lines[start:])


def set_up(workload: Workload, seed: int, work: Path) -> None:
    """Write every input the workload's command reads into ``work``."""
    import synth

    work.mkdir(parents=True, exist_ok=True)
    if workload.name == "compare-desk":
        synth.write_kdd_corpus(work / "corpus.csv", seed=DESK_CORPUS_SEED)
    elif workload.name == "train-small":
        synth.write_kdd_corpus(work / "train.csv", seed=SMALL_CORPUS_SEED, scale=SMALL_SCALE)
    elif workload.name == "eval-full":
        synth.write_kdd_corpus(work / "clean.csv", seed=DESK_CORPUS_SEED)
        inject_bad_lines(work / "clean.csv", work / "test.csv", seed)
        (work / "clean.csv").unlink()
        synth.write_kdd_corpus(work / "train.csv", seed=SMALL_CORPUS_SEED, scale=SMALL_SCALE)
        subprocess.run(
            [sys.executable, "-m", "nbtree_ids.cli", "train", "--train", "train.csv",
             "--out", "train-out"],
            cwd=work, env=program_env(), stdout=subprocess.DEVNULL, check=True,
        )
        (run_dir,) = (work / "train-out").glob("run-*")
        (run_dir / "models").rename(work / "models")
    else:
        raise ValueError(f"unknown workload {workload.name!r}")


def main(argv: list[str]) -> int:
    name, seed, work = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    set_up(WORKLOADS[name], int(seed), Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
