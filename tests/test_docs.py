"""The documented examples run as written, and the names the benchmark
reads exist."""

import ast
import importlib
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(heading: str, end: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(heading)
    return text[start:text.index(end, start)]


def test_readme_quickstart_runs():
    # the first python block after the quickstart heading, executed verbatim
    section = _section("## Library quickstart", "\n## ")
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quickstart", "exec"), {})


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # every line of the walkthrough block through the CLI in a scratch
    # directory, then the resume example on the finished sweep's CSV
    from xorgap.cli import main

    section = _section("## CLI walkthrough", "\n## File formats")
    walkthrough, resume = re.findall(r"```bash\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    for line in walkthrough.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "xorgap"
        assert main(argv[1:]) == 0, line
    before = (tmp_path / "gap.csv").read_bytes()
    (line,) = resume.splitlines()
    argv = shlex.split(line, comments=True)
    assert argv[0] == "xorgap" and "--resume" in argv
    capsys.readouterr()
    assert main(argv[1:]) == 0, line
    assert "wrote 0 rows" in capsys.readouterr().out
    assert (tmp_path / "gap.csv").read_bytes() == before


def test_benchmark_traced_names_exist():
    # benchmarks/tracing.py wraps each TRACED name by attribute lookup, so a
    # deleted or renamed function would break every traced run; the file is
    # read as text, never imported
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    ]
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"xorgap.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"xorgap.{module}.{name}"


def test_benchmark_cached_functions_keep_cache_info():
    # the traced benchmark counts cache misses by calling cache_info on each
    # function of its `_cached` map, so each must stay lru_cache'd; the file
    # is read as text, never imported
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    (cached,) = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "attr", None) == "_cached"
    ]
    assert cached.values
    for value in cached.values:
        module, name = value.value.id, value.attr
        fn = getattr(importlib.import_module(f"xorgap.{module}"), name, None)
        assert callable(getattr(fn, "cache_info", None)), f"xorgap.{module}.{name}"
