"""The quick-start example of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_block_runs():
    code = quick_start_code()
    assert "pl.bch_chain(word)" in code
    exec(compile(code, f"{README.name} quick start", "exec"), {})
