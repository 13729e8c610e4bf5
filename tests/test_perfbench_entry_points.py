"""The benchmark's entry points resolve against the package: every function
and method that ``perfbench/traced.py`` wraps still exists where it names
it, ``perfbench/checks.py`` imports, ``perfbench/run.py``'s own imports of
the package bind to its calls, ``train`` leaves the one run directory
``perfbench/inputs.py`` takes its models from, and ``perfbench/checks.py``
reloads those models and finds their batch scoring equal to per-example
scoring. A refactor that renames or moves one of them fails here instead
of silently breaking a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import synth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load("traced")
    for module_name, names in traced.TRACED.items():
        module = importlib.import_module(module_name)
        for qualname in names:
            if "." in qualname:
                cls_name, method = qualname.split(".")
                # the tracer wraps the method found in the class's own dict
                assert method in getattr(module, cls_name).__dict__, qualname
            else:
                assert callable(getattr(module, qualname)), qualname


def test_output_checks_import():
    checks = load("checks")
    assert callable(checks.artifact_mismatches)


def test_run_calls_of_the_package_bind():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("nbtree_ids") for alias in node.names}
    assert {"load_dataset", "evaluate"} <= imported.keys()
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert {call.func.id for call in calls} >= {"load_dataset", "evaluate"}
    for call in calls:
        # raises TypeError unless the call's arguments fit the function's signature
        inspect.signature(imported[call.func.id]).bind(
            *call.args, **{k.arg: k.value for k in call.keywords})


@pytest.fixture(scope="module")
def toy_train(tmp_path_factory):
    """The toy corpus and the run directory of ``train`` on it."""
    work = tmp_path_factory.mktemp("toy-train")
    synth.write_kdd_corpus(work / "train.csv", seed=1, scale=0.004)
    # the command inputs.set_up runs to make eval-full's models
    subprocess.run([sys.executable, "-m", "nbtree_ids.cli", "train", "--train", "train.csv",
                    "--out", "train-out"],
                   cwd=work, env=load("inputs").program_env(), stdout=subprocess.DEVNULL,
                   check=True)
    (run_dir,) = (work / "train-out").glob("run-*")
    return work / "train.csv", run_dir


def test_train_leaves_one_run_directory_with_every_model(toy_train):
    _, run_dir = toy_train
    models = sorted(p.name for p in (run_dir / "models").iterdir())
    assert models == sorted(f"{m}.json" for m in load("inputs").MODEL_IDS)


def test_reloaded_models_score_rows_as_one_example_at_a_time(toy_train):
    corpus, run_dir = toy_train
    checks, inputs = load("checks"), load("inputs")
    models = checks.load_models(run_dir / "models", inputs.MODEL_IDS)
    lines = len(corpus.read_text(encoding="utf-8").splitlines())
    sample = checks.sample_rows(corpus, lines, seed=0, size=300)
    assert checks.reference_problems(models, sample) == []
