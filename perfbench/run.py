"""End-to-end benchmark of the nbtree-ids command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One invocation:

1. sets up the workload's inputs (``inputs.py``) twice, side by side, checks
   that both copies are byte-identical and reports the median set-up time;
2. runs ``python -m nbtree_ids.cli ...`` as a fresh process, one at a time,
   until S seconds have passed and at least two processes (one with
   ``--trace 1``) have run, timing each from start to exit and taking its
   peak memory from ``os.wait4``;
3. with ``--trace 1``, then runs the command once more under ``traced.py``
   and derives the per-layer metrics from its spans;
4. checks every run's outputs (``checks.py``) and, outside the timed
   region, batch against per-example scoring on a seeded sample of rows.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The line before it is a ``record`` object with the machine,
the workload, every sample and every model's quality, for information.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUPS = 2                  # set-ups per invocation, run side by side
REFERENCE_ROWS = 400        # rows sampled for the batch-scoring reference check
DEADLINE_S = 170.0          # start no process that would end the invocation later
PROCESS_TIMEOUT_S = 150.0


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return (exit code, rusage), killing it after
    ``timeout`` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def set_up(workload: inputs.Workload, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Run SETUPS set-ups side by side; return the first one's directory and
    each one's wall time. The copies must be byte-identical."""
    dirs = [work / f"setup-{k}" for k in range(SETUPS)]
    pending: dict[int, tuple[subprocess.Popen, float]] = {}
    times = []
    timer = threading.Timer(PROCESS_TIMEOUT_S,
                            lambda: [proc.kill() for proc, _ in list(pending.values())])
    timer.start()
    try:
        for d in dirs:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "inputs.py"), workload.name, str(seed), str(d)],
                env=inputs.program_env(), stdout=subprocess.DEVNULL,
            )
            pending[proc.pid] = (proc, start)
        while pending:   # the set-ups are this process's only children
            pid, status, _ = os.wait4(-1, 0)
            proc, start = pending.pop(pid)
            times.append(time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up of {workload.name} exited with {proc.returncode}")
    finally:
        timer.cancel()
        for proc, _ in pending.values():
            proc.kill()
            proc.wait()

    def files(d):
        return sorted(p.relative_to(d) for p in d.rglob("*")
                      if p.is_file() and "train-out" not in p.parts)

    for d in dirs[1:]:
        if files(d) != files(dirs[0]) or any(
                (d / f).read_bytes() != (dirs[0] / f).read_bytes() for f in files(d)):
            raise RuntimeError("two set-ups with the same seed made different inputs")
        shutil.rmtree(d)
    return dirs[0], times


def run_program(workload: inputs.Workload, work: Path, tag: str,
                spans: Path | None = None) -> dict:
    """One timed process of the workload's command, writing under ``out-<tag>``."""
    cli = (["-m", "nbtree_ids.cli"] if spans is None
           else [str(HERE / "traced.py"), str(spans)])
    cmd = [sys.executable, *cli, *workload.argv, "--out", f"out-{tag}"]
    with open(work / f"stderr-{tag}.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=inputs.program_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc, PROCESS_TIMEOUT_S)
        seconds = time.perf_counter() - start
    return {"tag": tag, "traced": spans is not None, "run_s": seconds, "exit": code,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "out": work / f"out-{tag}"}


def check_run(run: dict, workload: inputs.Workload, reference_dir: Path | None) -> list[str]:
    import checks

    if run["exit"] != 0:
        return [f"exit code {run['exit']}"]
    try:
        run_dir = checks.run_directory(run["out"])
        problems = checks.report_problems(run_dir, workload.test_rows, inputs.MODEL_IDS)
        if workload.writes_models:
            checks.load_models(run_dir / "models", inputs.MODEL_IDS)
        if reference_dir is not None:
            problems += [f"differs from first run: {p}"
                         for p in checks.artifact_mismatches(reference_dir, run_dir)]
    except Exception as exc:  # any failed check fails this run, not the benchmark
        problems = [f"{type(exc).__name__}: {exc}"]
    return problems


def tail(values: list[float]) -> dict:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return {"samples": n, "percentile": None, "value": None}
    return {"samples": n, "percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def benchmark(workload: inputs.Workload, seed: int, seconds: float, trace: bool,
              work: Path) -> tuple[dict, dict]:
    import checks
    import traced

    began = time.perf_counter()
    setup_dir, setup_times = set_up(workload, seed, work)

    runs: list[dict] = []
    min_untraced = 1 if trace else 2
    measure_start = time.perf_counter()
    while True:
        n = len(runs)
        longest = max((r["run_s"] for r in runs), default=0.0)
        if n >= min_untraced and (
                time.perf_counter() - measure_start >= seconds
                or time.perf_counter() - began + 1.5 * longest * (1 + trace) > DEADLINE_S):
            break
        runs.append(run_program(workload, setup_dir, str(n)))
    if trace:
        spans_path = setup_dir / "spans.json"
        runs.append(run_program(workload, setup_dir, "traced", spans=spans_path))

    first_dir = None
    for run in runs:
        run["problems"] = check_run(run, workload, first_dir)
        if first_dir is None and not run["problems"]:
            first_dir = checks.run_directory(run["out"])
    if first_dir is None:
        raise RuntimeError(f"no run of {workload.name} passed its checks: "
                           f"{[r['problems'] for r in runs]}")

    # outside the timed region: reload, reference-check and score the models
    models_dir = (first_dir if workload.writes_models else setup_dir) / "models"
    models = checks.load_models(models_dir, inputs.MODEL_IDS)
    sample = checks.sample_rows(setup_dir / workload.check_corpus, workload.input_lines,
                                seed, REFERENCE_ROWS)
    problems = checks.reference_problems(models, sample)
    if workload.test_rows is not None:
        reports = json.loads((first_dir / "bundle.json").read_text())["reports"]
    else:   # train writes no reports: score the models on their training corpus
        from nbtree_ids.dataset import load_dataset
        from nbtree_ids.evaluation import evaluate
        from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy
        train = load_dataset(setup_dir / workload.check_corpus, kdd99_schema(),
                             kdd99_taxonomy())
        reports = [evaluate(m, checks.for_model(m, train), model_id=mid).to_dict()
                   for mid, m in models.items()]
    quality = checks.quality(reports)
    proposed = quality["proposed-nbtree"]

    untraced = [r for r in runs if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in untraced)
    failed = sum(1 for r in runs if r["problems"])
    if trace:
        traced_run = runs[-1]
        spans = json.loads(spans_path.read_text())["spans"]
        metrics = traced.layer_metrics(spans)
        metrics["trace.overhead_s"] = traced_run["run_s"] - run_s
        metrics["trace.outside_main_s"] = traced_run["run_s"] - metrics["trace.main_s"]
    else:
        metrics = {
            "run_s": run_s,
            "records_per_s": workload.input_lines / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(setup_times),
            "ok_share": (len(runs) - failed) / len(runs),
            "proposed_macro_dr": proposed["macro_dr"],
            "proposed_normal_dr": proposed["normal_dr"],
        }
    record = {
        "workload": workload.name, "seed": seed,
        "argv": list(workload.argv), "config_hash": first_dir.name.removeprefix("run-"),
        "corpus": workload.corpus, "input_lines": workload.input_lines,
        "machine": machine(),
        "setup_s_samples": setup_times,
        "runs": [{k: v for k, v in r.items() if k != "out"} for r in runs],
        "run_s_tail": tail([r["run_s"] for r in untraced]),
        "models": quality,
        "reference_rows": sample.n,
        "problems": problems,
    }
    result = {"correct": not problems and failed == 0, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "nbtree_ids" / "cli.py", ROOT / "tests" / "synth.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of nbtree-ids, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result, record = benchmark(inputs.WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    values = result["metrics"]
    if {m["name"] for m in wanted} != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    record["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
