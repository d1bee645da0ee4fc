"""The documented examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    # the first python block after the quickstart heading, executed verbatim
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quickstart", "exec"), {})
