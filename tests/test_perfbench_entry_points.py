"""The benchmark's entry points resolve against the package: every function
and method that ``perfbench/traced.py`` wraps still exists where it names
it, and ``perfbench/checks.py`` imports. A refactor that renames or moves
one of them fails here instead of silently breaking ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
