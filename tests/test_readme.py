"""The README's Library example, run as written on small synthetic corpora."""

import re
from pathlib import Path

import synth

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, capsys):
    code = library_example()
    for name, seed in (("kddcup.data_10_percent", 1), ("corrected", 2)):
        assert f'"{name}"' in code
        path = tmp_path / name
        synth.write_kdd_corpus(path, seed=seed, scale=0.004)
        code = code.replace(f'"{name}"', repr(str(path)))
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("model: nbtree") and "accuracy:" in out
