"""Golden CLI outputs: the README command-line examples in all three formats.

`tests/golden/cases.json` lists each invocation with its expected exit code and
stderr; the expected stdout is the file it names. The files were produced once
by the CLI and are compared byte for byte, so a refactor of the CLI must keep
every rendered document unchanged. The `bch-n4-untouched` cases (a word that
never touches spin 4 and whose tail does not commute, exit 1) and
`bch-n4-epsilon.pretty` (one `--epsilon`) pin the report lines of a chain that
is not evaluated, a failed verification and a single offset's leakage.

`tests/golden/digests.json` pins larger documents, up to the 512 x 512 H of
`spin --n 9`, by the sha256 and byte count of their stdout and their exit code.
It was first produced by the recursive JSON emitter and per-entry pretty
matrices that the row-at-a-time renderers replaced, and its `bch --n 9` entries
by the dense `bch` evaluation that the per-sector one replaced.

Every document that prints the cogwheel Hamiltonian or its polynomial
coefficients, or a check computed from them, was regenerated when the closed
forms replaced the dense D diag(E) D^dagger product and the inverse FFT; the CSV
documents kept their bytes. Those two constructions stay in `oracles.py`, and
the anchor test below reruns every case with them patched in: each document may
differ from that run only in its numbers, each by at most 1e-14 * max(1, 1/T). A
JSON document is compared as its parsed tree, the other formats as their text on
the lines that differ.

The `cogwheel` documents that show `coefficients_reconstruct` (`cogwheel-n4.json`,
`cogwheel-n4.pretty` and the `cogwheel --n 37` JSON and pretty digests) were
regenerated again when that check stopped comparing the polynomial in the shift
with the circulant of the same coefficients, which read exactly 0, and began
comparing it with the spectral form D diag(T*E) D^dagger; only that error changed.

The documents that hold a `bch` chain (`bch-n4-word.*`, `bch-n4-sweep.json`,
`bch-n4-sweep.pretty`, `bch-n4-epsilon.pretty` and the `bch --n 6` and `bch --n 9`
digests) were regenerated when the factored forms' deviations stopped being measured
on sector products and became closed forms of cos(theta), sin(theta) and the tail
gate. exp_each_factor and exp_tail_product kept their bytes. exp_tail_sum became
its bound, at or above the measured value (4.4829078259753189e-16 ->
5.0618806616280474e-16 at n = 4), and with it its `max_error` and, in the `bch --n 6`
digest, `max_deviation`; every exit code and verdict stayed the same.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import permlog.cli
import permlog.cogwheel
import permlog.dynamics
from oracles import dense_cogwheel_hamiltonian, ifft_polynomial_coefficients
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


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)")


def numbers_and_text(document):
    """The document's numbers, and the text between them with whitespace runs collapsed."""
    parts = NUMBER.split(document)
    return [float(x) for x in parts[1::2]], [part.split() for part in parts[::2]]


A_NUMBER = object()  # stands for every number in a JSON tree, so == compares what is left


def numbers_and_tree(document):
    """A JSON document's numbers and whether each is written as an integer, in document order, and its tree.

    In the tree every number is A_NUMBER and every object the list of its (key, value) pairs, so
    == compares keys in order, strings, bools and nulls.
    """
    numbers, integral = [], []

    def parser(is_int):
        def parse(text):
            numbers.append(float(text))
            integral.append(is_int)
            return A_NUMBER
        return parse

    tree = json.loads(document, parse_float=parser(False), parse_int=parser(True), object_pairs_hook=list)
    return np.array(numbers), np.array(integral, dtype=bool), tree


@pytest.mark.parametrize("case", CASES + DIGESTS, ids=[" ".join(c["args"]) for c in CASES + DIGESTS])
def test_golden_documents_match_the_dense_oracles_up_to_rounding(case, capsys, monkeypatch):
    if "stdout" in case:
        committed = (GOLDEN / case["stdout"]).read_text(encoding="utf-8")
    else:
        main(case["args"])
        committed = capsys.readouterr().out
        assert hashlib.sha256(committed.encode("utf-8")).hexdigest() == case["sha256"]
    for module in (permlog.cogwheel, permlog.dynamics, permlog.cli):
        monkeypatch.setattr(module, "cogwheel_hamiltonian", dense_cogwheel_hamiltonian)
        monkeypatch.setattr(module, "polynomial_coefficients", ifft_polynomial_coefficients)
    assert main(case["args"]) == case["exit"]
    oracle = capsys.readouterr().out
    if case["args"][-2:] == ["--format", "json"]:
        # a JSON document is compared as its tree: a number written as an integer in both documents is
        # the same integer, and any other number, such as an exact 0 against 1e-17, lies within the bound
        (numbers, integral, tree), (oracle_numbers, oracle_integral, oracle_tree) = (
            numbers_and_tree(committed), numbers_and_tree(oracle))
        assert tree == oracle_tree
        both = integral & oracle_integral
        assert np.array_equal(numbers[both], oracle_numbers[both])
    else:
        # lines that are equal carry equal numbers and text, so only the differing lines are split
        lines, oracle_lines = committed.split("\n"), oracle.split("\n")
        assert len(lines) == len(oracle_lines)
        differing = [pair for pair in zip(lines, oracle_lines) if pair[0] != pair[1]] or [("", "")]
        (numbers, text), (oracle_numbers, oracle_text) = (numbers_and_text("\n".join(side)) for side in zip(*differing))
        assert text == oracle_text
    t = float(case["args"][case["args"].index("--t") + 1]) if "--t" in case["args"] else 1.0
    assert np.max(np.abs(np.subtract(numbers, oracle_numbers)), initial=0.0) <= 1e-14 * max(1.0, 1.0 / t)
