import argparse
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import permlog.cli
import permlog.cogwheel
from permlog.cli import COGWHEEL_CAP, MAX_SWEEP_STEPS, _emit_json, _fmt_complex, _fmt_matrix, main
from permlog.cogwheel import polynomial_coefficients, shift_permutation
from permlog.dynamics import (
    BlockHamiltonianReport,
    UntouchedSpinWarning,
    evolution_permutation,
    hamiltonian_from_permutation,
    parse_word,
    polynomial_matrix,
    uniform_polynomial_form,
)
from permlog.linalg import expm, max_abs_diff
from permlog.spins import number_down, number_up, spinflip

from oracles import dense_spin_errors, random_words

REFERENCE_ARGS = ["spin", "--n", "4", "--word", "P23 P12 P34", "--t", "1", "--format", "json"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# --- determinism and schema ------------------------------------------------------


def test_json_output_is_byte_identical(capsys):
    code1, out1 = run_cli(REFERENCE_ARGS, capsys)
    code2, out2 = run_cli(REFERENCE_ARGS, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip()


def test_main_parses_every_call_with_one_parser(capsys, monkeypatch):
    # the argparse tree is built once per process, and no call's options leak into the next;
    # build_parser keeps returning a fresh parser
    assert permlog.cli.build_parser() is not permlog.cli.build_parser()
    first = run_cli(REFERENCE_ARGS, capsys)

    def refuse():
        raise AssertionError("rebuilt the parser")

    monkeypatch.setattr(permlog.cli, "build_parser", refuse)
    assert run_cli(REFERENCE_ARGS, capsys) == first
    bch = ["bch", "--n", "4", "--word", "P23 P12 P34", "--k-range", "0", "--format", "json"]
    assert "perturbation" in json.loads(run_cli([*bch, "--epsilon", "0.01"], capsys)[1])["results"]
    assert "perturbation" not in json.loads(run_cli(bch, capsys)[1])["results"]


def test_json_schema_shape(capsys):
    code, out = run_cli(REFERENCE_ARGS, capsys)
    doc = json.loads(out)
    assert list(doc.keys()) == ["schema_version", "command", "inputs", "results", "verifications"]
    assert doc["schema_version"] == 1
    assert doc["command"] == "spin"
    assert doc["inputs"]["word"] == "P23 P12 P34"
    assert all(v["passed"] for v in doc["verifications"])


def test_json_floats_carry_17_significant_digits(capsys):
    _, out = run_cli(["cogwheel", "--n", "2", "--format", "json"], capsys)
    assert "3.1415926535897931" in out


def test_arrays_with_nan_are_refused():
    with pytest.raises(ValueError, match="non-finite"):
        _emit_json(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        _emit_json({"h": np.array([complex(0.0, np.nan)])})


# --- the JSON writer against the recursive emitter it replaced --------------------------------


def reference_float_repr(x) -> str:
    if not np.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return format(float(x), ".17g")


def reference_emit_json(value, indent: int = 0) -> str:
    """The previous emitter: one recursive call and one float format per entry."""
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        return reference_emit_json(value.tolist(), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{pad}  {json.dumps(key)}: {reference_emit_json(val, indent + 1)}" for key, val in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (bool, int, float, np.integer, np.floating)) for x in items):
            return "[" + ", ".join(reference_emit_json(x) for x in items) + "]"
        rows = [f"{pad}  {reference_emit_json(x, indent + 1)}" for x in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return reference_float_repr(value)
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + reference_float_repr(value.real) + ", " + reference_float_repr(value.imag) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-17, -1e-17, 1.0, 0.1]
EDGE_FLOAT32 = [float(np.float32(x)) for x in (0.0, -0.0, 1e-45, -1e-45, 3.4028234663852886e38, 1e-17, 0.1)]
SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def float_arrays(draw):
    kind = draw(st.sampled_from(["float64", "complex128", "float32"]))
    shape = draw(SHAPES)
    if kind == "float32":
        elements = st.one_of(st.sampled_from(EDGE_FLOAT32), st.floats(width=32, allow_nan=False, allow_infinity=False))
        return draw(arrays(np.float32, shape, elements=elements))
    elements = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    re = draw(arrays(np.float64, shape, elements=elements))
    if kind == "float64":
        return re
    z = np.empty(shape, dtype=np.complex128)
    z.real = re
    z.imag = draw(arrays(np.float64, shape, elements=elements))
    return z


NESTINGS = [
    lambda a: a,
    lambda a: {"h": a},
    lambda a: [a, 1, "x", None],
    lambda a: {"results": {"pair": [a, a], "n": 3, "t": 0.37}, "empty": {}, "flags": [True, False]},
    lambda a: [[a], (a,), {"z": a}],
]


@given(float_arrays(), st.sampled_from(NESTINGS), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_emit_json_equals_the_recursive_emitter(a, nest, indent):
    doc = nest(a)
    assert _emit_json(doc, indent) == reference_emit_json(doc, indent)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 5, -1])
@pytest.mark.parametrize("part", ["float", "real", "imag"])
def test_non_finite_array_entries_are_refused(bad, where, part, capsys, monkeypatch):
    a = np.ones((3, 4), dtype=float if part == "float" else complex)
    flat = a.reshape(-1)
    if part == "imag":
        flat.imag[where] = bad
    else:
        flat.real[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _emit_json({"h": a})
    monkeypatch.setitem(
        permlog.cli._HANDLERS, "cogwheel", lambda args: {"results": {"h": a}, "verifications": []}
    )
    code = main(["cogwheel", "--n", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: refusing to serialize a non-finite number\n"


def test_pretty_matrix_rows_equal_per_entry_cells():
    edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-17, 5e-324, 1.5, -2.25e10])
    rng = np.random.default_rng(0)
    z = np.empty((6, 5), dtype=complex)
    z.real = rng.choice(edge, z.shape)
    z.imag = rng.choice(edge, z.shape)
    for m in (z, z.real, np.eye(3), rng.normal(size=(4, 4)) + 1e-17j):
        expected = ["  " + "  ".join(f"{_fmt_complex(v):>22s}" for v in row) for row in m]
        assert _fmt_matrix(m, "M") == [f"M ({m.shape[0]}x{m.shape[1]}):"] + expected


def test_spin_json_formats_matrix_rows_in_bulk(capsys, monkeypatch):
    # a structural guard, not a timing test: the parent emitter made 524,327 calls here
    calls = []
    original = permlog.cli._float_repr
    monkeypatch.setattr(permlog.cli, "_float_repr", lambda x: calls.append(x) or original(x))
    word = " ".join(f"P{i}{i + 1}" for i in range(1, 9))
    code, out = run_cli(["spin", "--n", "9", "--word", word, "--format", "json"], capsys)
    assert code == 0
    assert len(out) > 4_000_000
    assert len(calls) < 1000


def test_json_format_renders_nothing_else(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a --format json call rendered another format")

    for name in ("_render_pretty", "_render_csv", "_fmt_matrix", "_fmt_complex", "_verification_lines"):
        monkeypatch.setattr(permlog.cli, name, refuse)
    for args in (REFERENCE_ARGS, ["cogwheel", "--n", "4", "--format", "json"]):
        code, out = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["verifications"]


def test_complex_numbers_serialize_as_pairs(capsys):
    _, out = run_cli(["cogwheel", "--n", "2", "--format", "json"], capsys)
    doc = json.loads(out)
    h = doc["results"]["hamiltonian"]
    assert h[0][0] == pytest.approx([np.pi / 2, 0.0])
    assert len(h[0][1]) == 2


# --- cogwheel command ---------------------------------------------------------------


def test_cogwheel_four_states_diagonal(capsys):
    code, out = run_cli(["cogwheel", "--n", "4", "--t", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["hamiltonian"][0][0][0] == pytest.approx(3 * np.pi / 4)
    assert doc["results"]["energies"] == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_cogwheel_single_state(capsys):
    code, out = run_cli(["cogwheel", "--n", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["hamiltonian"] == [[[0.0, 0.0]]]


def test_cogwheel_two_states_matrix(capsys):
    code, out = run_cli(["cogwheel", "--n", "2", "--format", "json"], capsys)
    doc = json.loads(out)
    h = np.array([[complex(re, im) for re, im in row] for row in doc["results"]["hamiltonian"]])
    assert np.allclose(h, (np.pi / 2) * np.array([[1, -1], [-1, 1]]), atol=1e-12)


def test_cogwheel_with_phases_skips_hamiltonian(capsys):
    code, out = run_cli(
        ["cogwheel", "--n", "3", "--phases", "0.1,0.2,0.3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert "hamiltonian" not in doc["results"]
    names = [v["name"] for v in doc["verifications"]]
    assert "power_identity" in names


def test_cogwheel_coefficients_reconstruct_fails_on_wrong_coefficients(capsys, monkeypatch):
    # conj(h_k) are the coefficients of the inverse shift's logarithm; patched into both modules, H is
    # still their circulant, so the polynomial in the shift equals T*H exactly and only D diag(T*E) D^dagger differs
    def wrong(n, timestep=1.0):
        return polynomial_coefficients(n, timestep).conj()

    for module in (permlog.cogwheel, permlog.cli):
        monkeypatch.setattr(module, "polynomial_coefficients", wrong)
    reconstructed = polynomial_matrix(shift_permutation(4), 0.37 * wrong(4, 0.37))
    assert max_abs_diff(reconstructed, 0.37 * permlog.cogwheel.cogwheel_hamiltonian(4, 0.37)) == 0.0
    code, out = run_cli(["cogwheel", "--n", "4", "--t", "0.37", "--format", "json"], capsys)
    assert code == 1
    failed = [v["name"] for v in json.loads(out)["verifications"] if not v["passed"]]
    assert "coefficients_reconstruct" in failed


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "0"], "--n must be a positive integer"),
        (["--n", str(COGWHEEL_CAP + 1)], f"--n must be at most {COGWHEEL_CAP}"),
        (["--n", "3", "--phases", "1,2,"], "each --phases value must be a number, got ''"),
        (["--n", "3", "--phases", "1,2"], "--phases must hold exactly 3 values, got shape (2,)"),
    ],
)
def test_cogwheel_usage_error_builds_no_operator(args, message, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built an operator from rejected input")

    monkeypatch.setattr(permlog.cli, "build_standard_form", refuse)
    code = main(["cogwheel", *args, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cogwheel_negative_first_phase_is_written_with_equals(capsys):
    code, out = run_cli(["cogwheel", "--n", "2", "--phases=-0.4,0.1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["phases"] == [-0.4, 0.1]


def test_cogwheel_phases_whose_sum_overflows_are_one_stderr_line():
    # a fresh process: any numpy RuntimeWarning would reach its stderr before the error line
    proc = subprocess.run(
        [sys.executable, "-m", "permlog.cli", "cogwheel", "--n", "2", "--phases=1e308,1e308", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: phases and their sum must be finite\n"


def test_cogwheel_csv_energies(capsys):
    code, out = run_cli(["cogwheel", "--n", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,energy"
    assert lines[1] == "0,0"
    assert lines[2].startswith("1,3.1415926535897931")


# --- spin command -----------------------------------------------------------------


def test_spin_reference_report(capsys):
    code, out = run_cli(REFERENCE_ARGS, capsys)
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["orbit_lengths"] == [1, 1, 2, 4, 4, 4]
    assert results["spectrum"]["multiplicities"] == [6, 3, 4, 3]
    assert results["spectrum"]["energies"] == pytest.approx(
        [0, np.pi / 2, np.pi, 3 * np.pi / 2]
    )
    assert results["polynomial_period"] == 4
    labeled = [orbit["labels"] for orbit in results["orbits"]]
    assert [1] in labeled and [16] in labeled


def test_spin_two_spins(capsys):
    code, out = run_cli(["spin", "--n", "2", "--word", "P12", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["spectrum"]["multiplicities"] == [3, 1]


def test_spin_csv_spectrum(capsys):
    code, out = run_cli(["spin", "--n", "2", "--word", "P12", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "energy,multiplicity"
    assert lines[1] == "0,3"
    assert lines[2].startswith("3.1415926535897931,1")


def test_spin_pretty_shows_labels(capsys):
    code, out = run_cli(["spin", "--n", "4", "--word", "P23 P12 P34"], capsys)
    assert code == 0
    assert "labels 2,3,4,5" in out
    assert "uuud -> uduu -> duuu -> uudu" in out


COMMUTATION_CHECKS = ("commutes_number_up", "commutes_number_down", "commutes_spinflip")


def dense_commutation_errors(h, n):
    """The dense products the spin command's commutation checks stand for."""
    ops = (np.diag(number_up(n)).astype(complex), np.diag(number_down(n)).astype(complex), spinflip(n).matrix())
    return {name: max_abs_diff(h @ op, op @ h) for name, op in zip(COMMUTATION_CHECKS, ops)}


def reported_errors(out):
    return {v["name"]: v["max_error"] for v in json.loads(out)["verifications"]}


@pytest.mark.parametrize(
    "n, word, t",
    [(2, "P12", 1.0), (4, "P23 P12 P34", 0.37), (5, "(1 4)(2 5)(3 4)(1 2)", 1.0), (6, "(1 6)(2 3)(4 5)(2 6)", 2.5)],
)
def test_spin_commutation_errors_equal_dense_products(n, word, t, capsys):
    code, out = run_cli(["spin", "--n", str(n), "--word", word, "--t", str(t), "--format", "json"], capsys)
    assert code == 0
    h = hamiltonian_from_permutation(evolution_permutation(parse_word(word, n)), t).matrix
    got = reported_errors(out)
    assert {name: got[name] for name in COMMUTATION_CHECKS} == dense_commutation_errors(h, n)


@pytest.mark.parametrize("n", [3, 5])
def test_spin_commutation_errors_equal_dense_products_off_symmetry(n, capsys, monkeypatch):
    # a random H on the cycle blocks keeps the down count, so it commutes with the number
    # operators, but not with the spinflip
    word = " ".join(f"P{i}{i + 1}" for i in range(1, n))
    perm = evolution_permutation(parse_word(word, n))
    rng = np.random.default_rng(n)
    h = np.zeros((perm.size, perm.size), dtype=complex)
    for cycle in perm.cycles():
        shape = (len(cycle), len(cycle))
        h[np.ix_(cycle, cycle)] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    monkeypatch.setattr(
        permlog.cli, "hamiltonian_from_permutation",
        lambda perm, t: BlockHamiltonianReport(matrix=h, per_length={}),
    )
    args = ["spin", "--n", str(n), "--word", word, "--format", "json"]
    code, out = run_cli(args, capsys)
    assert code == 1
    got = reported_errors(out)
    dense = dense_commutation_errors(h, n)
    assert dense["commutes_number_up"] == dense["commutes_number_down"] == 0 < dense["commutes_spinflip"]
    assert {name: got[name] for name in COMMUTATION_CHECKS} == dense

    # one tiny entry off the blocks: the checks refuse H instead of reading only the blocks
    first, second = perm.cycles()[:2]
    h[first[0], second[0]] = 1e-300
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: h has nonzero entries outside the cycle blocks of the permutation\n"


SPIN_ORACLE_WORDS = [
    parse_word("P23 P12 P34", 4),
    parse_word("P12 P23 P45", 5),
    parse_word("(1 2)(2 3)(3 4)(4 5)(5 6)(6 7)(7 8)(8 9)", 9),
]


def test_spin_oracle_words_cover_fixed_points_and_mixed_cycle_lengths():
    for word in SPIN_ORACLE_WORDS:
        lengths = set(evolution_permutation(word).cycles_by_length)
        assert 1 in lengths and len(lengths) >= 3, str(word)


def spin_check_errors(word, t):
    """The max_error of each matrix check _cmd_spin reports, by name."""
    payload = permlog.cli._cmd_spin(argparse.Namespace(n=word.n_spins, word=str(word), t=t, tol=1e-10))
    return {v["name"]: v["max_error"] for v in payload["verifications"] if v["max_error"] is not None}


def dense_check_errors(perm, t):
    h = hamiltonian_from_permutation(perm, t).matrix
    return dense_spin_errors(perm, h, uniform_polynomial_form(perm, t), t)


@given(random_words(), st.sampled_from([1.0, 0.37, 2.5]))
@example(SPIN_ORACLE_WORDS[0], 1.0)
@example(SPIN_ORACLE_WORDS[1], 0.37)
@example(SPIN_ORACLE_WORDS[2], 2.5)
@settings(max_examples=30, deadline=None)
def test_spin_block_errors_equal_dense_checks(word, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UntouchedSpinWarning)  # a random word may skip a spin
        got = spin_check_errors(word, t)
        perm = evolution_permutation(word)
    assert got == dense_check_errors(perm, t)


def test_spin_round_trip_takes_one_expm_per_distinct_block(monkeypatch):
    # every cycle of one length carries the same block bytes: 60 cycles of 3 lengths at n = 9
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(permlog.cli, "expm", counting_expm)
    spin_check_errors(SPIN_ORACLE_WORDS[2], 1.0)
    assert sorted(calls) == [(1, 1), (3, 3), (9, 9)]


@pytest.mark.parametrize("word, t", [(SPIN_ORACLE_WORDS[0], 1.0), (SPIN_ORACLE_WORDS[1], 0.37), (parse_word("P12", 2), 2.5)])
def test_spin_block_errors_equal_dense_checks_across_down_counts(word, t, monkeypatch):
    # followed by the spinflip, the evolution still commutes with the spinflip but changes
    # down counts, so the number checks see nonzero differences on the blocks
    perm = evolution_permutation(word) * spinflip(word.n_spins)
    monkeypatch.setattr(permlog.cli, "evolution_permutation", lambda w: perm)
    got = spin_check_errors(word, t)
    assert got["commutes_number_up"] > 0 and got["commutes_number_down"] > 0
    assert got == dense_check_errors(perm, t)


# --- bch command --------------------------------------------------------------------


@pytest.mark.parametrize("k_range", ["0", "2"])
def test_bch_warns_once_per_call(k_range, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bch", "--n", "5", "--word", "P23 P12 P34", "--k-range", k_range,
                     "--epsilon", "0.01", "--epsilon-sweep", "0:0.05:3", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == "warning: word P23 P12 P34 never touches spin(s) [5]\n"
    assert caught == []  # printed as one clean line, not as a Python warning


@pytest.mark.parametrize("argv, code, untouched", [
    pytest.param(["spin", "--n", "5", "--word", "P12 P45"], 0, [3], id="spin"),
    pytest.param(["bch", "--n", "5", "--word", "P12 P45"], 0, [3], id="bch"),
    # the chain refuses a non-commuting tail and a single factor, after the word has been checked for untouched spins
    pytest.param(["bch", "--n", "5", "--word", "P12 P23", "--epsilon", "0.1"], 1, [4, 5], id="bch-P12 P23"),
    pytest.param(["bch", "--n", "3", "--word", "P12", "--epsilon", "0.1"], 1, [3], id="bch-P12"),
    pytest.param(["bch", "--n", "5", "--word", "P12 P34", "--epsilon", "0.1"], 0, [5], id="bch-P12 P34"),
])
def test_untouched_spin_is_one_clean_stderr_line(argv, code, untouched):
    # a fresh process: Python's own warning text would carry a source path, a line number and the source line
    argv = [*argv, "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "permlog.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr == f"warning: word {argv[4]} never touches spin(s) {untouched}\n"
    assert json.loads(proc.stdout)["command"] == argv[0]


def test_other_warnings_pass_through_the_command(capsys, monkeypatch):
    def warn(args):
        warnings.warn("something else", RuntimeWarning)
        return {"inputs": {}, "results": {"energies": []}, "verifications": []}

    monkeypatch.setitem(permlog.cli._HANDLERS, "cogwheel", warn)
    with pytest.warns(RuntimeWarning, match="something else"):
        assert main(["cogwheel", "--n", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


def test_bch_reference_chain(capsys):
    code, out = run_cli(
        ["bch", "--n", "4", "--word", "P23 P12 P34", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["max_deviation"] < 1e-10
    assert len(doc["results"]["coupling_variants"]) == 10  # k in -2..2, two families
    assert all(v["passed"] for v in doc["verifications"])


def test_bch_zero_epsilon(capsys):
    code, out = run_cli(
        ["bch", "--n", "4", "--word", "P23 P12 P34", "--epsilon", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["perturbation"]["leakage"] <= 1e-12
    names = [v["name"] for v in doc["verifications"]]
    assert "zero_coupling_leakage" in names


@pytest.mark.parametrize(
    "sweep, steps",
    [
        (["--epsilon-sweep", "0:0.05:6"], (0, 0.05, 6)),
        (["--epsilon-sweep=-0.1:0.1:3"], (-0.1, 0.1, 3)),  # the spelling a negative start needs
    ],
)
def test_bch_sweep_csv_monotone(sweep, steps, capsys):
    code, out = run_cli(["bch", "--n", "4", "--word", "P23 P12 P34", *sweep, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,leakage"
    assert len(lines) == steps[2] + 1
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert [eps for eps, _ in rows] == list(np.linspace(*steps))
    # the leakage grows with the size of the offset
    assert all(a <= b for (x, a), (y, b) in itertools.combinations(rows, 2) if abs(x) < abs(y))


def test_bch_noncommuting_tail_reports_failure(capsys):
    code, out = run_cli(["bch", "--n", "3", "--word", "P12 P23", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert "chain_error" in doc["results"]
    failures = [v["name"] for v in doc["verifications"] if not v["passed"]]
    assert failures == ["chain_preconditions"]


def test_bch_csv_without_sweep_is_usage_error(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated the chain before rejecting the format")

    monkeypatch.setattr(permlog.bch._SectorMaps, "chain", refuse)
    code = main(["bch", "--n", "4", "--word", "P23 P12 P34", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "CSV" in captured.err


@pytest.mark.parametrize(
    "epsilon, message",
    [("0.01", "CSV export is only available for flat data (spectra and sweeps)"), ("nan", "offsets must be finite")],
)
def test_bch_epsilon_csv_without_sweep_is_refused_before_any_block(epsilon, message, capsys, monkeypatch):
    # the offset is checked first, then the format, and only then is a sector block formed for its leakage
    def refuse(*args):
        raise AssertionError("formed a sector block before rejecting the format")

    monkeypatch.setattr(permlog.bch._SectorMaps, "_stacked_products", refuse)
    code = main(["bch", "--n", "4", "--word", "P23 P12 P34", "--epsilon", epsilon, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bch_negative_k_range_is_usage_error(capsys):
    code = main(["bch", "--n", "4", "--word", "P23 P12 P34", "--k-range", "-1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --k-range" in captured.err


def test_bch_command_builds_the_sector_maps_once(capsys, monkeypatch):
    # the chain, six coupling checks and four leakages share one set of checked sector maps:
    # per sector, one map for each of the 7 factors and one for the merged tail product
    involution = permlog.bch._involution
    checked = []  # the number of maps in each check, one per row

    def counting(q):
        checked.append(q.size // q.shape[-1])
        return involution(q)

    monkeypatch.setattr(permlog.bch, "_involution", counting)
    argv = ["bch", "--n", "6", "--word", "P12 P23 P34 P45 P56 P12 P34", "--k-range", "1",
            "--epsilon", "0.01", "--epsilon-sweep", "0:0.05:3", "--format", "json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert len(json.loads(out)["results"]["sweep"]) == 3
    assert sum(checked) == (7 + 1) * (6 + 1)


def test_bch_k_range_within_the_sweep_step_budget(capsys, monkeypatch):
    # each k in -K..K runs one coupling check per family: 2(2K + 1) <= MAX_SWEEP_STEPS
    largest = (MAX_SWEEP_STEPS - 2) // 4
    assert 2 * (2 * largest + 1) <= MAX_SWEEP_STEPS < 2 * (2 * (largest + 1) + 1)

    def refuse(*args):
        raise AssertionError("evaluated the chain before rejecting --k-range")

    args = ["bch", "--n", "4", "--word", "P23 P12 P34", "--format", "json", "--k-range"]
    monkeypatch.setattr(permlog.bch._SectorMaps, "chain", refuse)
    code = main(args + [str(largest + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --k-range must be at most 249, got {largest + 1}\n"

    monkeypatch.undo()
    monkeypatch.setattr(permlog.bch._SectorMaps, "coupling_check", lambda maps, k, family, tol: True)
    code, out = run_cli(args + [str(largest)], capsys)
    assert code == 0
    assert len(json.loads(out)["results"]["coupling_variants"]) == 2 * (2 * largest + 1)


def test_bch_sweep_step_cap(capsys):
    args = ["bch", "--n", "2", "--word", "P12 P12", "--k-range", "0", "--format", "csv"]
    code = main(args + ["--epsilon-sweep", f"0:0.1:{MAX_SWEEP_STEPS + 1}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --epsilon-sweep" in captured.err
    code, out = run_cli(args + ["--epsilon-sweep", f"0:0.1:{MAX_SWEEP_STEPS}"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == MAX_SWEEP_STEPS + 1


@pytest.mark.parametrize(
    "sweep, message",
    [
        ("0:1:2.5", "--epsilon-sweep steps must be an integer, got '2.5'"),
        ("a:1:2", "--epsilon-sweep start must be a number, got 'a'"),
        ("0:b:2", "--epsilon-sweep stop must be a number, got 'b'"),
        ("0:1", "--epsilon-sweep expects start:stop:steps"),
    ],
)
def test_bch_malformed_sweep_names_the_field(sweep, message, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated the chain before rejecting the sweep")

    monkeypatch.setattr(permlog.bch._SectorMaps, "chain", refuse)
    code = main(["bch", "--n", "4", "--word", "P23 P12 P34", "--format", "json", "--epsilon-sweep", sweep])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "offsets",
    [
        ["--epsilon", "inf"],
        ["--epsilon", "nan"],
        ["--epsilon-sweep", "0:inf:3"],
        ["--epsilon-sweep=-inf:0:3"],
        ["--epsilon-sweep", "0:nan:3"],
        ["--epsilon-sweep=-1e308:1e308:3"],  # finite endpoints, infinite span
    ],
)
def test_bch_non_finite_offsets_are_usage_errors(offsets, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated the chain before rejecting the offsets")

    monkeypatch.setattr(permlog.bch._SectorMaps, "chain", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # linspace warns on an infinite endpoint
        code = main(["bch", "--n", "4", "--word", "P23 P12 P34", "--format", "json", *offsets])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: offsets must be finite\n"


# --- tolerances, exit codes, output -------------------------------------------------


def test_impossible_tolerance_fails_verifications(capsys):
    code, out = run_cli(REFERENCE_ARGS + ["--tol", "1e-30"], capsys)
    assert code == 1
    doc = json.loads(out)
    failed = [v for v in doc["verifications"] if not v["passed"]]
    assert failed  # machine-readable failure list


COMMAND_ARGS = {
    "cogwheel": ["cogwheel", "--n", "4"],
    "spin": ["spin", "--n", "4", "--word", "P23 P12 P34"],
    "bch": ["bch", "--n", "4", "--word", "P23 P12 P34"],
}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("value", ["1e-3", "1e-30", "inf", "abc"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_env_var_does_not_change_the_tolerance(command, value, fmt, capsys, monkeypatch):
    # the command line is the only input, so a tolerance in the environment changes no byte and no exit code
    def run():
        code = main(COMMAND_ARGS[command] + ["--format", fmt])
        return code, capsys.readouterr()

    monkeypatch.delenv("PERMLOG_TOL", raising=False)
    plain = run()
    monkeypatch.setenv("PERMLOG_TOL", value)
    assert run() == plain


NON_FINITE_INPUTS = {  # arguments, the one stderr line
    "tol": (["--tol", "inf"], "error: tolerance must be finite"),
    "t": (["--t", "inf"], "error: --t must be finite"),
    "tol_zero": (["--tol", "0"], "error: tolerance must be positive"),
    "t_zero": (["--t", "0"], "error: --t must be positive"),
    "t_nan": (["--t", "nan"], "error: --t must be positive"),
}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_non_finite_tolerance_or_timestep_is_usage_error(command, case, fmt, capsys, monkeypatch):
    extra, message = NON_FINITE_INPUTS[case]

    def refuse(args):
        raise AssertionError("ran the command before rejecting its input")

    monkeypatch.setitem(permlog.cli._HANDLERS, command, refuse)
    code = main(COMMAND_ARGS[command] + extra + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("t", ["1e-310", "1e308"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_timestep_with_unrepresentable_energies_is_one_stderr_line(command, t):
    # a fresh process: any numpy RuntimeWarning would reach its stderr before the error line
    proc = subprocess.run(
        [sys.executable, "-m", "permlog.cli", *COMMAND_ARGS[command], "--t", t, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: timestep {float(t):g} is out of range: the energies cannot be represented\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spin", "--n", "4", "--word", "P23 P12 P34", "--t", "4e-308", "--format", "json"],
        ["cogwheel", "--n", "5", "--t", "4e-308", "--format", "json"],
    ],
)
def test_timestep_whose_inverse_dft_overflows_is_verified_with_empty_stderr(argv):
    # finite energies whose inverse DFT would overflow: the closed-form coefficients stay finite
    proc = subprocess.run([sys.executable, "-m", "permlog.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert all(v["passed"] for v in json.loads(proc.stdout)["verifications"])


UNITS_OF_THE_TICK_ARGS = [
    ["spin", "--n", "4", "--word", "P23 P12 P34"],
    ["spin", "--n", "9", "--word", "P12 P23 P34 P45 P56 P67 P78 P89"],
    ["cogwheel", "--n", "6"],
    ["cogwheel", "--n", "512"],
]


@pytest.mark.parametrize("t", ["4e-308", "1e-300", "1e-8", "1e8", "1e300"])
@pytest.mark.parametrize("argv", UNITS_OF_THE_TICK_ARGS, ids=lambda argv: f"{argv[0]}-n{argv[2]}")
def test_every_check_passes_across_the_float_range_of_the_timestep(argv, t, capsys):
    # H-valued checks compare T*H and T*h_k: energies scale as 1/T, the tolerances do not. Taken on H
    # itself, correct output failed below T = 1 (at 1e-8 spin's commutes_spinflip read 3.8e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--t", t, "--format", "csv"])
    assert (code, capsys.readouterr().err) == (0, "")


def test_wrong_hamiltonian_fails_at_a_large_timestep(capsys, monkeypatch):
    # a random H on the cycle blocks, of the size of the true one; its differences from a spinflip-symmetric
    # polynomial in P are of order 1/T = 1e-20, far below every tolerance unless taken in units of the tick
    t = 1e20
    perm = evolution_permutation(parse_word("P23 P12 P34", 4))
    rng = np.random.default_rng(5)
    h = np.zeros((perm.size, perm.size), dtype=complex)
    for cycle in perm.cycles():
        h[np.ix_(cycle, cycle)] = rng.normal(size=(len(cycle), len(cycle))) / t
    report = BlockHamiltonianReport(matrix=h, per_length={})
    monkeypatch.setattr(permlog.cli, "hamiltonian_from_permutation", lambda perm, t: report)
    code, out = run_cli(["spin", "--n", "4", "--word", "P23 P12 P34", "--t", str(t), "--format", "json"], capsys)
    failed = {v["name"] for v in json.loads(out)["verifications"] if not v["passed"]}
    assert code == 1
    assert {"commutes_spinflip", "polynomial_matches_blocks"} <= failed


def test_bad_word_is_usage_error(capsys):
    code = main(["spin", "--n", "4", "--word", "P15"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_spin_cap_is_usage_error(capsys):
    for command, n in [("spin", "13"), ("spin", "1"), ("bch", "13"), ("bch", "1")]:
        code = main([command, "--n", n, "--word", "P12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --n must be in 2..12, got {n}\n"


def test_bad_timestep_is_usage_error(capsys):
    code = main(["spin", "--n", "2", "--word", "P12", "--t", "-1"])
    assert code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["spin", "--n", "4", "--word", "P12", "--frobnicate"])
    assert err.value.code == 2


def test_output_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(REFERENCE_ARGS + ["--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "spin"


@pytest.mark.parametrize("where, reason", [("missing/report.json", "No such file or directory"), ("", "Is a directory")])
def test_unwritable_output_is_a_usage_error(where, reason, tmp_path, capsys):
    target = tmp_path / where
    code = main(REFERENCE_ARGS + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: {reason}\n"


@pytest.mark.parametrize(
    "exc, exit_code, err",
    [
        (MemoryError("Unable to allocate 4.00 GiB for an array"), 2,
         "error: out of memory: Unable to allocate 4.00 GiB for an array\n"),
        (KeyError("energies"), 3, "error: internal error: KeyError: 'energies'\n"),
    ],
    ids=["out_of_memory", "internal_error"],
)
def test_error_in_a_command_is_one_stderr_line(exc, exit_code, err, capsys, monkeypatch):
    def fail(args):
        raise exc

    monkeypatch.setitem(permlog.cli._HANDLERS, "spin", fail)
    code = main(REFERENCE_ARGS)
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    assert captured.err == err


def test_memory_error_while_rendering_is_a_usage_error(capsys, monkeypatch):
    def exhaust(value, indent=0):
        raise MemoryError()

    monkeypatch.setattr(permlog.cli, "_emit_json", exhaust)
    code = main(REFERENCE_ARGS)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory: allocation failed\n"


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "permlog.cli", "cogwheel", "--n", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "cogwheel"
