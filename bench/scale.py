"""One-shot scale pass: re-measure the ROADMAP baseline rows through public calls.

    python3 bench/scale.py

Each row is timed once (no repeats, no seed: the inputs are the fixed words of
the baseline table), checked, printed, and written with environment metadata
to ``.bench_out/scale.json``. Rows: ``spin --format json`` and
``bch --format json --k-range 0`` at n = 8 and 10; the structure stages
(evolution permutation, cycles, block H, spectrum) at n = 8, 10 and 12;
``polynomial_matrix``; and the ``expm(-iH)`` round trip. This is not one of
the repeated workloads of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time

import run

BCH_WORD = "(1 2)(3 4)(5 6)"
ROUND_TRIP_TOL = 1e-10


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def shift_text(n: int) -> str:
    return "".join(f"({i} {i + 1})" for i in range(1, n))


def rows():
    """Yield (row, n, seconds, passed) for every baseline row."""
    import permlog
    import workloads

    for n in (8, 10):
        argv = ("spin", "--n", str(n), "--word", shift_text(n), "--format", "json")
        (code, _, caught), seconds = timed(workloads.run_cli, argv)
        yield "spin --format json", n, seconds, code == 0 and not caught
    for n in (8, 10):
        argv = ("bch", "--n", str(n), "--word", BCH_WORD, "--k-range", "0", "--format", "json")
        (code, _, _), seconds = timed(workloads.run_cli, argv)
        yield "bch --format json --k-range 0", n, seconds, code == 0
    for n in (8, 10, 12):
        def structure():
            perm = permlog.evolution_permutation(permlog.parse_word(shift_text(n), n))
            orbits = permlog.orbit_decomposition(perm)
            report = permlog.hamiltonian_from_permutation(perm)
            spec = permlog.spectrum(perm)
            return perm, orbits, report, spec

        (perm, orbits, report, spec), seconds = timed(structure)
        yield "permutation + cycles + block H + spectrum", n, seconds, (
            spec.total_multiplicity == 1 << n and orbits.size == 1 << n)
        if n == 12:
            continue
        coeffs = permlog.uniform_polynomial_form(perm)
        poly, seconds = timed(permlog.polynomial_matrix, perm, coeffs)
        yield "polynomial_matrix", n, seconds, permlog.max_abs_diff(poly, report.matrix) < ROUND_TRIP_TOL
        error, seconds = timed(
            lambda: permlog.max_abs_diff(permlog.expm(-1j * report.matrix), perm.matrix()))
        yield "expm(-iH) round trip", n, seconds, error < ROUND_TRIP_TOL


def main() -> int:
    if not (run.SRC / "permlog" / "__init__.py").is_file():
        print(f"error: no permlog sources under {run.SRC}", file=sys.stderr)
        return 2
    run.prepare_process()
    import workloads

    # The first CLI call in a process pays for growing the heap; keep it out of the rows.
    workloads.run_cli(("spin", "--n", "8", "--word", shift_text(8), "--format", "json"))
    results = []
    for row, n, seconds, passed in rows():
        print(f"{row:45s} n={n:<3d} {seconds:10.4f} s  {'ok' if passed else 'FAILED'}", flush=True)
        results.append({"row": row, "n": n, "seconds": seconds, "passed": passed})
    run.OUT_DIR.mkdir(exist_ok=True)
    report = {"environment": run.environment(), "rows": results}
    (run.OUT_DIR / "scale.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["passed"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
