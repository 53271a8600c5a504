"""Golden CLI outputs: the README command-line examples in all three formats.

`tests/golden/cases.json` lists each invocation with its expected exit code and
stderr; the expected stdout is the file it names. The files were produced once
by the CLI and are compared byte for byte, so a refactor of the CLI must keep
every rendered document unchanged.
"""

import json
from pathlib import Path

import pytest

from permlog.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"] for c in CASES])
def test_cli_matches_golden(case, capsys):
    code = main(case["args"])
    captured = capsys.readouterr()
    expected = (GOLDEN / case["stdout"]).read_text(encoding="utf-8")
    assert captured.out == expected
    assert code == case["exit"]
    assert captured.err == case["stderr"]
