"""Command-line surface: cogwheel, spin, and bch reports with deterministic export.

Each command builds one result model, the JSON payload (numpy arrays kept as
arrays), and main renders it in the requested format only. JSON documents
carry fixed field order and fixed float formatting (17 significant digits), so
identical invocations produce byte-identical output. Complex numbers serialize
as [re, im] pairs and matrices as row-major nested arrays; float and complex
arrays are formatted a row at a time into one output buffer. CSV export exists
only for flat data (energy levels and perturbation sweeps). Exit codes: 0 all
verifications passed, 1 some verification failed, 2 usage error or out of memory,
3 internal error (any other exception in a command).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .bch import COUPLING_FAMILIES, PreconditionViolation, _check_offsets, _SectorMaps
from .cogwheel import (
    _check_size,
    _phase_vector,
    build_standard_form,
    cogwheel_energies,
    cogwheel_hamiltonian,
    diagonalizer,
    polynomial_coefficients,
    shift_permutation,
    verify_power_identity,
)
from .dynamics import (
    UntouchedSpinWarning,
    _cycle_blocks,
    evolution_permutation,
    hamiltonian_from_permutation,
    parse_word,
    polynomial_matrix,
    spectrum,
    uniform_polynomial_form,
)
from .linalg import (
    DEFAULT_EQ_TOL,
    DEFAULT_UNITARITY_TOL,
    _check_positive,
    dagger,
    expm,
    is_permutation_matrix,
    max_abs_diff,
)
from .spins import SPIN_CAP, SpinConfiguration, _check_spin_count, four_spin_state_label, number_down, spinflip

SCHEMA_VERSION = 1
MAX_SWEEP_STEPS = 1000  # each sweep step builds and checks the sector blocks of one unitary; the coupling checks
# (O(m) each, no block) share the cap
# cogwheel builds dense n x n matrices and checks them in O(n^3). Wall time and peak memory on a 2-vCPU
# x86_64 host with one BLAS thread, in csv, json and pretty: n = 512 took 0.95 s / 79 MB and 1.94 s / 125 MB;
# n = 1024 took 6.8 s / 217 MB, 10.1 s / 373 MB and 6.9 s / 228 MB; n = 2048 took 45 s / 741 MB in csv. The
# cap is the largest power of two whose slowest format ends in under 15 s and 500 MB. spin never builds a
# cogwheel longer than order(sigma) <= 60.
COGWHEEL_CAP = 1024


# ---------------------------------------------------------------------------
# deterministic JSON emission


def _float_repr(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return format(float(x), ".17g")


def _emit_json(value, indent: int = 0) -> str:
    out: list[str] = []
    _write_json(out, value, indent)
    return "".join(out)


def _write_json(out: list[str], value, indent: int) -> None:
    """Append the document for value to out, one chunk at a time."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc" and value.ndim:
        if not np.isfinite(value).all():
            raise ValueError("refusing to serialize a non-finite number")
        _write_array(out, value, indent)
    elif isinstance(value, np.ndarray):
        _write_json(out, value.tolist(), indent)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        pad = "  " * indent
        sep = "{\n"
        for key, val in value.items():
            out.append(f"{sep}{pad}  {json.dumps(key)}: ")
            _write_json(out, val, indent + 1)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(value, (list, tuple)):
        if all(isinstance(x, (bool, int, float, np.integer, np.floating)) for x in value):
            out.append("[" + ", ".join(map(_scalar_json, value)) + "]")
        else:
            _write_items(out, value, indent, _write_json)
    else:
        out.append(_scalar_json(value))


def _write_items(out: list[str], items, indent: int, write) -> None:
    """A non-empty sequence as an array with one item per line, each written by write."""
    pad = "  " * indent
    sep = "[\n"
    for item in items:
        out.append(f"{sep}{pad}  ")
        write(out, item, indent + 1)
        sep = ",\n"
    out.append(f"\n{pad}]")


def _write_array(out: list[str], a: np.ndarray, indent: int) -> None:
    """A finite float or complex array as nested rows; each 1-D row is one template fill.

    "%.17g" % x is format(x, ".17g") for a Python float, and .tolist() makes every entry one.
    """
    if not len(a):
        out.append("[]")
    elif a.ndim > 1:
        _write_items(out, a, indent, _write_array)
    elif a.dtype.kind == "c":
        pad = "  " * indent
        parts = np.column_stack([a.real, a.imag]).ravel().tolist()
        out.append("[\n" + ",\n".join([f"{pad}  [%.17g, %.17g]"] * len(a)) % tuple(parts) + f"\n{pad}]")
    else:
        out.append("[" + ", ".join(["%.17g"] * len(a)) % tuple(a.tolist()) + "]")


def _scalar_json(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_repr(value)
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + _float_repr(value.real) + ", " + _float_repr(value.imag) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# rendering: each renderer reads only the payload


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:+.6g}{z.imag:+.6g}i"


def _fmt_matrix(m: np.ndarray, label: str) -> list[str]:
    """One line per row: each row's cells are one template fill, as _fmt_complex would write them."""
    cols = m.shape[1]
    cells = "%+.6g%+.6gi\0" * cols
    line = "  " + "  ".join(["%22s"] * cols)
    lines = [f"{label} ({m.shape[0]}x{cols}):"]
    for row in m:
        parts = np.column_stack([row.real, row.imag]).ravel().tolist()
        lines.append(line % tuple((cells % tuple(parts)).split("\0")[:-1]))
    return lines


def _verification_lines(verifications) -> list[str]:
    lines = ["verifications:"]
    for v in verifications:
        mark = "ok " if v["passed"] else "FAIL"
        detail = ""
        if v.get("max_error") is not None:
            detail = f"  (max_error={v['max_error']:.3e}, tolerance={v['tolerance']:.1e})"
        lines.append(f"  [{mark}] {v['name']}{detail}")
    failed = [v["name"] for v in verifications if not v["passed"]]
    if failed:
        lines.append("FAILED: " + ", ".join(failed))
    return lines


def _pretty_cogwheel(inputs: dict, results: dict) -> list[str]:
    lines = [f"cogwheel: n={inputs['n']}, t={_float_repr(inputs['t'])}"]
    lines += _fmt_matrix(results["standard_form"], "standard form U")
    lines.append("energies: " + ", ".join(_float_repr(e) for e in results["energies"]))
    if "hamiltonian" in results:
        lines += _fmt_matrix(results["hamiltonian"], "hamiltonian H")
        coeffs = results["polynomial_coefficients"]
        lines.append("polynomial coefficients: " + ", ".join(_fmt_complex(c) for c in coeffs))
    return lines


def _pretty_spin(inputs: dict, results: dict) -> list[str]:
    lines = [f"spin chain: n={inputs['n']}, word={inputs['word']}, t={_float_repr(inputs['t'])}", "orbits:"]
    for orbit in results["orbits"]:
        line = f"  length {orbit['length']}: " + " -> ".join(orbit["states"])
        if "labels" in orbit:
            line += "  (labels " + ",".join(str(label) for label in orbit["labels"]) + ")"
        lines.append(line)
    lines += _fmt_matrix(results["hamiltonian"], "hamiltonian H")
    period = results["polynomial_period"]
    lines.append(f"polynomial period: {period}")
    lines.append(
        "polynomial coefficients: "
        + ", ".join(_fmt_complex(c) for c in results["polynomial_coefficients"][:16])
        + (" ..." if period > 16 else "")
    )
    lines.append("spectrum:")
    spec = results["spectrum"]
    for e, m in zip(spec["energies"], spec["multiplicities"]):
        lines.append(f"  energy {_float_repr(e)}  multiplicity {m}")
    return lines


def _pretty_bch(inputs: dict, results: dict) -> list[str]:
    lines = [f"bch: n={inputs['n']}, word={inputs['word']}"]
    if "max_deviation" in results:
        lines.append(f"all closed forms vs plain product: max deviation {results['max_deviation']:.3e}")
        for label, dev in results["form_deviations"].items():
            lines.append(f"  {label}: {dev:.3e}")
        agree = sum(1 for v in results["coupling_variants"] if v["passed"])
        lines.append(f"coupling variants passed: {agree}/{len(results['coupling_variants'])}")
    else:
        lines.append(f"chain not evaluated: {results['chain_error']}")
    if "perturbation" in results:
        p = results["perturbation"]
        lines.append(f"epsilon {_float_repr(p['epsilon'])}: leakage {_float_repr(p['leakage'])}")
    if "sweep" in results:
        lines.append("epsilon sweep:")
        for e, l in results["sweep"]:
            lines.append(f"  {_float_repr(e)}  {_float_repr(l)}")
    return lines


_PRETTY = {"cogwheel": _pretty_cogwheel, "spin": _pretty_spin, "bch": _pretty_bch}


def _render_pretty(payload: dict) -> str:
    lines = _PRETTY[payload["command"]](payload["inputs"], payload["results"])
    lines += _verification_lines(payload["verifications"])
    return "\n".join(lines) + "\n"


def _render_csv(payload: dict) -> str:
    """The command's flat table; bch has one only with --epsilon-sweep, which _cmd_bch enforces."""
    results = payload["results"]
    if payload["command"] == "cogwheel":
        header, rows = "level,energy", enumerate(results["energies"])
    elif payload["command"] == "spin":
        spec = results["spectrum"]
        header, rows = "energy,multiplicity", zip(spec["energies"], spec["multiplicities"])
    else:
        header, rows = "epsilon,leakage", results["sweep"]
    lines = [header] + [",".join(_emit_json(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns inputs, results and verifications; --n, --t and --tol are already checked


def _check(name: str, error: float, tolerance: float) -> dict:
    return {
        "name": name,
        "passed": bool(error <= tolerance),
        "max_error": float(error),
        "tolerance": float(tolerance),
    }


def _max_abs(diffs) -> float:
    """The largest entry magnitude over a sequence of arrays."""
    return max(float(np.abs(d).max()) for d in diffs)


def _check_bool(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed), "max_error": None, "tolerance": None}


def _cmd_cogwheel(args) -> dict:
    n, t, tol = args.n, args.t, args.tol
    phases = None if args.phases is None else [_parse_number("each --phases value", p) for p in args.phases.split(",")]
    phases = _phase_vector(n, phases, "--phases")  # all zero without --phases
    zero_phases = not phases.any()

    u = build_standard_form(n, phases)
    energies = cogwheel_energies(n, t, phases)
    verifications = [
        _check("standard_form_unitary", max_abs_diff(u @ dagger(u), np.eye(n)), DEFAULT_UNITARITY_TOL),
        _check_bool("standard_form_is_permutation", is_permutation_matrix(u, tol)),
        _check_bool("power_identity", verify_power_identity(n, phases, tol)),
    ]
    results = {"standard_form": u, "energies": energies}
    if zero_phases:
        d = diagonalizer(n)
        h = cogwheel_hamiltonian(n, t)
        coeffs = polynomial_coefficients(n, t)
        lam = np.diag(np.exp(-1j * energies * t))
        reconstructed = polynomial_matrix(shift_permutation(n), t * coeffs)  # H-valued checks read T*H, T*h_k
        spectral = (d * (t * energies)) @ dagger(d)  # T*H from D and E, independent of the coefficients
        results["diagonalizer"] = d
        results["hamiltonian"] = h
        results["polynomial_coefficients"] = coeffs
        verifications += [
            _check("diagonalizer_unitary", max_abs_diff(d @ dagger(d), np.eye(n)), DEFAULT_UNITARITY_TOL),
            _check("diagonalization", max_abs_diff(dagger(d) @ u @ d, lam), DEFAULT_UNITARITY_TOL),
            _check("hamiltonian_self_adjoint", max_abs_diff(t * h, dagger(t * h)), DEFAULT_UNITARITY_TOL),
            _check("round_trip", max_abs_diff(expm(-1j * h * t), u), tol),
            _check("coefficients_reconstruct", max_abs_diff(reconstructed, spectral), tol),
            _check("coefficients_zero_sum", abs(complex((t * coeffs).sum())), DEFAULT_UNITARITY_TOL),
        ]

    return {
        "inputs": {
            "n": n,
            "t": float(t),
            "phases": phases,
            "tolerance": float(tol),
        },
        "results": results,
        "verifications": verifications,
    }


def _orbit_entry(cycle, n_spins: int) -> dict:
    states = [str(SpinConfiguration(n_spins, x)) for x in cycle]
    entry = {"length": len(cycle), "indices": list(cycle), "states": states}
    if n_spins == 4:
        entry["labels"] = [four_spin_state_label(SpinConfiguration(4, x)) for x in cycle]
    return entry


def _cmd_spin(args) -> dict:
    n, t, tol = args.n, args.t, args.tol
    word = parse_word(args.word, n)
    perm = evolution_permutation(word)
    h = hamiltonian_from_permutation(perm, t).matrix
    coeffs = uniform_polynomial_form(perm, t)
    spec = spectrum(perm, t)

    # Each check reads H's cycle blocks only: off them every dense difference is exactly 0 - 0, as
    # _cycle_blocks refuses any other nonzero entry and the spinflip, which commutes with every exchange,
    # maps cycles onto cycles. On a length-L cycle both P and the polynomial in P act as the L-shift S,
    # and blocks with equal bytes have the same expm, so the round trip takes one per distinct block.
    # Every check reads T*H and T*h_k: in units of the tick, scaled before subtracting so nothing overflows.
    tables = perm.cycles_by_length  # ascending lengths
    blocks = list(zip(tables.values(), [t * b for b in _cycle_blocks(h, tables)], map(shift_permutation, tables)))
    down = number_down(n)
    flip = spinflip(n).map
    period = len(coeffs)

    def commutes(d):  # T(H D - D H) for the diagonal D = diag(d)
        return _max_abs(b * d[rows][:, None] - d[rows][..., None] * b for rows, b, _ in blocks)
    verifications = [
        _check("round_trip", _max_abs(expm(-1j * x) - s.matrix()
                                      for _, b, s in blocks for x in {y.tobytes(): y for y in b}.values()), tol),
        _check("commutes_number_up", commutes(n - down), DEFAULT_UNITARITY_TOL),
        _check("commutes_number_down", commutes(down), DEFAULT_UNITARITY_TOL),
        _check("commutes_spinflip", _max_abs(b - t * h[flip[rows][:, :, None], flip[rows][:, None, :]]
                                             for rows, b, _ in blocks), DEFAULT_UNITARITY_TOL),
        _check("polynomial_matches_blocks",
               _max_abs(polynomial_matrix(s, t * coeffs) - b for _, b, s in blocks), tol),
        _check_bool("power_lcm_identity", (perm**period).is_identity()),
        _check_bool("multiplicities_total", spec.total_multiplicity == perm.size),
    ]

    return {
        "inputs": {"n": n, "word": str(word), "t": float(t), "tolerance": float(tol)},
        "results": {
            "dimension": perm.size,
            "orbit_lengths": tuple(length for length, rows in tables.items() for _ in range(len(rows))),
            "orbits": [_orbit_entry(c, n) for c in perm.cycles()],
            "hamiltonian": h,
            "polynomial_period": period,
            "polynomial_coefficients": coeffs,
            "spectrum": {
                "energies": spec.distinct_energies,
                "multiplicities": spec.multiplicities,
                "contributing_cycles": spec.block_provenance,
            },
        },
        "verifications": verifications,
    }


def _parse_number(name: str, text: str, kind: type = float):
    """kind(text), or a ValueError that names the input."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def _parse_sweep(spec_text: str) -> np.ndarray:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ValueError("--epsilon-sweep expects start:stop:steps")
    names = (f"--epsilon-sweep {name}" for name in ("start", "stop", "steps"))
    start, stop, steps = map(_parse_number, names, parts, (float, float, int))
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"--epsilon-sweep steps must be in 1..{MAX_SWEEP_STEPS}, got {steps}")
    if not np.isfinite(stop - start):  # an infinite endpoint, or a span that overflows
        raise ValueError("offsets must be finite")
    return np.linspace(start, stop, steps)


def _cmd_bch(args) -> dict:
    n, t, tol = args.n, args.t, args.tol
    if args.k_range < 0:
        raise ValueError("--k-range must be non-negative")
    if 2 * (2 * args.k_range + 1) > MAX_SWEEP_STEPS:  # two coupling checks for each k in -K..K
        raise ValueError(f"--k-range must be at most {(MAX_SWEEP_STEPS - 2) // 4}, got {args.k_range}")
    word = parse_word(args.word, n)
    eps_values = None if args.epsilon_sweep is None else _parse_sweep(args.epsilon_sweep)
    maps = _SectorMaps(word)  # the word's sector maps, built once for every check below
    if args.epsilon is not None:
        _check_offsets(args.epsilon, len(word.factors))
    if args.format == "csv" and eps_values is None:
        raise ValueError("CSV export is only available for flat data (spectra and sweeps)")

    verifications = []
    results: dict = {"word": str(word)}
    try:
        chain = maps.chain(t)
    except PreconditionViolation as exc:
        results["chain_error"] = str(exc)
        verifications.append(_check_bool("chain_preconditions", False))
    else:
        results["max_deviation"] = max(chain.values())
        results["form_deviations"] = chain
        for label, dev in chain.items():
            verifications.append(_check(f"form_{label}", dev, tol))
        variants = []
        for family in COUPLING_FAMILIES:
            for k in range(-args.k_range, args.k_range + 1):
                passed = maps.coupling_check(k, family, tol)
                variants.append({"k": k, "family": family, "passed": passed})
                verifications.append(_check_bool(f"coupling_{family}_k{k:+d}", passed))
        results["coupling_variants"] = variants

    if eps_values is not None:
        results["sweep"] = [[eps, maps.leakage(eps)] for eps in eps_values.tolist()]
    if args.epsilon is not None:
        leak = maps.leakage(args.epsilon)
        results["perturbation"] = {"epsilon": args.epsilon, "leakage": leak}
        if args.epsilon == 0.0:
            verifications.append(_check("zero_coupling_leakage", leak, DEFAULT_UNITARITY_TOL))

    return {
        "inputs": {"n": n, "word": str(word), "t": float(t), "tolerance": float(tol)},
        "results": results,
        "verifications": verifications,
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlog",
        description="Exact permutation dynamics: cogwheel logarithms, spin-exchange words, "
        "and terminating exponential-product identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--t", type=float, default=1.0, help="time step T (default 1.0)")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--tol", type=float, default=DEFAULT_EQ_TOL, help="equality tolerance (default %(default)s)")

    p_cog = sub.add_parser("cogwheel", help="standard-form operator, energies, Hamiltonian")
    p_cog.add_argument("--n", type=int, required=True, help=f"number of states (1..{COGWHEEL_CAP})")
    p_cog.add_argument("--phases", default=None, help="comma-separated phases (default all zero); "
                       "write a negative first value as --phases=-0.4,0.1")
    add_common(p_cog)

    p_spin = sub.add_parser("spin", help="exchange-word dynamics on N spins")
    p_spin.add_argument("--n", type=int, required=True, help=f"number of spins (2..{SPIN_CAP})")
    p_spin.add_argument("--word", required=True, help='e.g. "P23 P12 P34"')
    add_common(p_spin)

    p_bch = sub.add_parser("bch", help="closed exponential forms and perturbation probe")
    p_bch.add_argument("--n", type=int, required=True, help=f"number of spins (2..{SPIN_CAP})")
    p_bch.add_argument("--word", required=True, help='e.g. "P23 P12 P34"')
    p_bch.add_argument("--epsilon", type=float, default=None, help="single coupling offset")
    p_bch.add_argument("--epsilon-sweep", dest="epsilon_sweep", default=None,
                       help=f"start:stop:steps leakage sweep (at most {MAX_SWEEP_STEPS} steps); "
                       "write a negative start as --epsilon-sweep=-0.1:0.1:3")
    p_bch.add_argument("--k-range", dest="k_range", type=int, default=2,
                       help="check coupling variants for |k| up to this (default 2)")
    add_common(p_bch)
    return parser


_HANDLERS = {"cogwheel": _cmd_cogwheel, "spin": _cmd_spin, "bch": _cmd_bch}


def _validate(args) -> None:
    """The --tol, --n and --t checks of every command, made before any work by the library's checkers."""
    _check_positive(args.tol, "tolerance")
    if args.command == "cogwheel":
        _check_size(args.n, "--n")
        if args.n > COGWHEEL_CAP:
            raise ValueError(f"--n must be at most {COGWHEEL_CAP}")
    else:
        _check_spin_count(args.n, 2, "--n")
    _check_positive(args.t, "--t")


def _show_warning(show):
    """A showwarning that prints an UntouchedSpinWarning as one clean stderr line and passes others to show."""
    def show_warning(message, category, *rest):
        if issubclass(category, UntouchedSpinWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *rest)
    return show_warning


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        with warnings.catch_warnings():
            warnings.simplefilter("always", UntouchedSpinWarning)  # one line per call: each command warns once
            warnings.showwarning = _show_warning(warnings.showwarning)
            payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **_HANDLERS[args.command](args)}
        if args.format == "json":
            rendered = _emit_json(payload) + "\n"
        elif args.format == "csv":
            rendered = _render_csv(payload)
        else:
            rendered = _render_pretty(payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if all(v["passed"] for v in payload["verifications"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
