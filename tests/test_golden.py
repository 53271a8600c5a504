"""Golden CLI outputs: the README command-line examples in all three formats.

`tests/golden/cases.json` lists each invocation with its expected exit code and
stderr; the expected stdout is the file it names. The files were produced once
by the CLI and are compared byte for byte, so a refactor of the CLI must keep
every rendered document unchanged.

`tests/golden/digests.json` pins larger documents, up to the 512 x 512 H of
`spin --n 9`, by the sha256 and byte count of their stdout and their exit code.
It was produced by the recursive JSON emitter and per-entry pretty matrices
that the row-at-a-time renderers replaced. Its last two entries, `bch --n 9`
with a leakage sweep and with `--k-range 1 --epsilon`, were produced by the
dense `bch` evaluation that the per-sector one replaced.
"""

import hashlib
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


DIGESTS = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", DIGESTS, ids=[f"{i:02d}-{c['args'][0]}-n{c['args'][2]}-{c['args'][-1]}" for i, c in enumerate(DIGESTS)]
)
def test_cli_matches_digest(case, capsys):
    code = main(case["args"])
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (case["bytes"], case["sha256"])
    assert code == case["exit"]
