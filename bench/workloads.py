"""The benchmark's workloads: seeded inputs, one call into permlog, and its checks.

Load is a closed loop with one client: the runner starts a call only when the
previous one has returned. The seed fixes a workload's inputs; the program sees
only the generated argv (CLI workloads) or word strings (library workload).
Every check here is the benchmark's own oracle, computed without permlog, and
runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Distinct inputs per seed. Random words differ in cost by about 12 % (cycle
# count, period), so more of them keep a run's mean cost close across seeds;
# a run of a CLI workload makes about ten calls, one of orbits-lib about 200.
CLI_INPUTS = 8
ORBITS_LIB_INPUTS = 16
TIMESTEP = 1.0
SPIN_JSON_N = 9
BCH_PROBE_N = 9
ORBITS_LIB_N = 12  # permlog.SPIN_CAP
SWEEP = "0:0.05:6"
SWEEP_EPSILONS = np.linspace(0.0, 0.05, 6)
ZERO_LEAKAGE_TOL = 1e-12
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One generated input: the word as spin pairs (rightmost acts first) and what the program receives."""

    n: int
    factors: tuple[tuple[int, int], ...]
    program_input: tuple[str, ...] | str  # argv for the CLI, word text for the library


@dataclass(frozen=True)
class Expected:
    """Reference answers computed by the benchmark from the factors alone."""

    cycle_lengths: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], list[Case]]
    call: Callable[[Case], object]
    check: Callable[[Case, Expected, object], list[str]]
    fingerprint: Callable[[object], str]  # equal for equal outputs
    output_bytes: Callable[[object], int]


def word_text(factors) -> str:
    return "".join(f"({i} {j})" for i, j in factors)


def shift_word(n: int) -> tuple[tuple[int, int], ...]:
    """The nearest-neighbour shift word (1 2)(2 3)...(n-1 n)."""
    return tuple((i, i + 1) for i in range(1, n))


def covering_pairs(rng: random.Random, spins: list[int]) -> list[tuple[int, int]]:
    """Pairs that together touch every spin in ``spins`` (at least two spins)."""
    spins = list(spins)
    rng.shuffle(spins)
    pairs = [(spins[k], spins[k + 1]) for k in range(0, len(spins) - 1, 2)]
    if len(spins) % 2:
        pairs.append((spins[-1], rng.choice(spins[:-1])))
    return pairs


def random_pair(rng: random.Random, n: int) -> tuple[int, int]:
    i, j = rng.sample(range(1, n + 1), 2)
    return (i, j)


def random_covering_word(rng: random.Random, n: int, length: int) -> tuple[tuple[int, int], ...]:
    """A word of ``length`` factors that touches all n spins, so no UntouchedSpinWarning fires."""
    pairs = covering_pairs(rng, range(1, n + 1))
    pairs += [random_pair(rng, n) for _ in range(length - len(pairs))]
    rng.shuffle(pairs)
    return tuple(pairs)


def commuting_tail_word(rng: random.Random, n: int, length: int) -> tuple[tuple[int, int], ...]:
    """A covering word whose last two factors are disjoint pairs, so they commute (n >= 6)."""
    if n < 6:
        raise ValueError("a commuting tail plus a covering head needs at least 6 spins")
    spins = list(range(1, n + 1))
    rng.shuffle(spins)
    tail = [(spins[0], spins[1]), (spins[2], spins[3])]
    head = covering_pairs(rng, spins[4:])
    head += [random_pair(rng, n) for _ in range(length - 2 - len(head))]
    rng.shuffle(head)
    return tuple(head + tail)


def bitswap_images(n: int, factors) -> np.ndarray:
    """images[x] is the configuration x becomes after one application of the word.

    Spin i sits at bit n - i. The rightmost factor acts first.
    """
    x = np.arange(1 << n, dtype=np.int64)
    for i, j in reversed(factors):
        a, b = n - i, n - j
        differ = ((x >> a) ^ (x >> b)) & 1
        x = x ^ (differ * ((1 << a) | (1 << b)))
    return x


def cycle_lengths(images: np.ndarray) -> tuple[int, ...]:
    seen = np.zeros(len(images), dtype=bool)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = int(images[x])
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def expected(case: Case) -> Expected:
    lengths = cycle_lengths(bitswap_images(case.n, case.factors))
    return Expected(cycle_lengths=lengths, period=math.lcm(*lengths))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# CLI workloads: permlog.cli.main(argv) in-process, stdout captured in memory


def run_cli(argv) -> tuple[int, str, list[str]]:
    import permlog.cli

    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        try:
            code = permlog.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), [str(w.message) for w in caught]


def _cli_failures(code: int, caught: list[str]) -> list[str]:
    fails = []
    if code != 0:
        fails.append(f"exit code {code}")
    fails += [f"warning: {w}" for w in caught]
    return fails


def spin_json_cases(seed: int, n: int = SPIN_JSON_N, count: int = CLI_INPUTS) -> list[Case]:
    rng = random.Random(f"spin-json:{seed}")
    words = [shift_word(n)]
    words += [random_covering_word(rng, n, n) for _ in range(count - 1)]
    return [
        Case(n, w, ("spin", "--n", str(n), "--word", word_text(w), "--format", "json"))
        for w in words
    ]


def check_spin_json(case: Case, exp: Expected, output) -> list[str]:
    code, text, caught = output
    fails = _cli_failures(code, caught)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return fails + [f"stdout is not JSON: {exc}"]
    failed_checks = [v["name"] for v in doc["verifications"] if not v["passed"]]
    if failed_checks:
        fails.append(f"verifications failed: {failed_checks}")
    results = doc["results"]
    if tuple(results["orbit_lengths"]) != exp.cycle_lengths:
        fails.append("orbit_lengths differ from the bit-swap cycle lengths")
    if results["polynomial_period"] != exp.period:
        fails.append("polynomial_period is not the lcm of the cycle lengths")
    if sum(results["spectrum"]["multiplicities"]) != 1 << case.n:
        fails.append("multiplicities do not sum to 2^n")
    return fails


def bch_probe_cases(seed: int, n: int = BCH_PROBE_N, count: int = CLI_INPUTS) -> list[Case]:
    rng = random.Random(f"bch-probe:{seed}")
    cases = []
    for _ in range(count):
        w = commuting_tail_word(rng, n, n)
        argv = ("bch", "--n", str(n), "--word", word_text(w), "--k-range", "0",
                "--epsilon-sweep", SWEEP, "--format", "csv")
        cases.append(Case(n, w, argv))
    return cases


def check_bch_probe(case: Case, exp: Expected, output) -> list[str]:
    code, text, caught = output
    fails = _cli_failures(code, caught)
    lines = text.splitlines()
    if not lines or lines[0] != "epsilon,leakage":
        return fails + ["CSV header is not epsilon,leakage"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(SWEEP_EPSILONS) or any(len(r) != 2 for r in rows):
        return fails + [f"expected {len(SWEEP_EPSILONS)} rows of two values"]
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        return fails + ["non-finite value in the sweep"]
    if not np.allclose(values[:, 0], SWEEP_EPSILONS, rtol=0, atol=1e-15):
        fails.append("epsilon column differs from the requested sweep")
    leak = values[:, 1]
    if not np.all((leak >= 0) & (leak <= 1)):
        fails.append("leakage outside [0, 1]")
    if leak[0] > ZERO_LEAKAGE_TOL:
        fails.append(f"leakage at epsilon 0 is {leak[0]:.3e}")
    return fails


def cli_fingerprint(output) -> str:
    return digest(output[1].encode())


def cli_output_bytes(output) -> int:
    return len(output[1].encode())


# ---------------------------------------------------------------------------
# library workload: the paper's mathematics at the spin cap, no oracles, no rendering


def orbits_lib_cases(seed: int, n: int = ORBITS_LIB_N, count: int = ORBITS_LIB_INPUTS) -> list[Case]:
    rng = random.Random(f"orbits-lib:{seed}")
    words = [shift_word(n)]
    words += [random_covering_word(rng, n, n) for _ in range(count - 1)]
    return [Case(n, w, word_text(w)) for w in words]


def run_orbits_lib(case: Case):
    import permlog

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        word = permlog.parse_word(case.program_input, case.n)
        perm = permlog.evolution_permutation(word)
        orbits = permlog.orbit_decomposition(perm)
        report = permlog.hamiltonian_from_permutation(perm, TIMESTEP)
        coeffs = permlog.uniform_polynomial_form(perm, TIMESTEP)
        spec = permlog.spectrum(perm, TIMESTEP)
    return orbits, report, coeffs, spec, [str(w.message) for w in caught]


def check_orbits_lib(case: Case, exp: Expected, output) -> list[str]:
    orbits, report, coeffs, spec, caught = output
    fails = [f"warning: {w}" for w in caught]
    if orbits.lengths != exp.cycle_lengths:
        fails.append("orbit lengths differ from the bit-swap cycle lengths")
    if spec.total_multiplicity != 1 << case.n:
        fails.append("total multiplicity is not 2^n")
    if len(coeffs) != exp.period:
        fails.append("polynomial period is not the lcm of the cycle lengths")
    index = np.concatenate([np.asarray(c) for c in orbits.cycles])
    want = np.concatenate(
        [np.full(len(c), np.pi * (len(c) - 1) / (len(c) * TIMESTEP)) for c in orbits.cycles]
    )
    worst = float(np.abs(report.matrix[index, index] - want).max())
    if worst > DIAGONAL_TOL:
        fails.append(f"diagonal block entries off pi(L-1)/(L*T) by {worst:.3e}")
    return fails


def orbits_lib_fingerprint(output) -> str:
    """Digest of the cycles, coefficients and spectrum (the 4096^2 H itself is not hashed)."""
    orbits, report, coeffs, spec, _ = output
    summary = repr((orbits.cycles, spec.distinct_energies, spec.multiplicities,
                    spec.block_provenance)).encode()
    return digest(summary + coeffs.tobytes())


# Each reason below says which layers the workload loads and which it bypasses;
# the README maps these onto the per-layer metrics.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spin-json",
            why="verified spin CLI at n=9: JSON and pretty rendering in cli plus dense oracles"
            " in linalg; bch is bypassed",
            generate=spin_json_cases,
            call=lambda case: run_cli(case.program_input),
            check=check_spin_json,
            fingerprint=cli_fingerprint,
            output_bytes=cli_output_bytes,
        ),
        Workload(
            name="bch-probe",
            why="bch CLI at n=9 with a 6-point leakage sweep: dense expm and products in linalg"
            " and bch; rendering is under 2 KB",
            generate=bch_probe_cases,
            call=lambda case: run_cli(case.program_input),
            check=check_bch_probe,
            fingerprint=cli_fingerprint,
            output_bytes=cli_output_bytes,
        ),
        Workload(
            name="orbits-lib",
            why="the paper's mathematics at n=12 via the library: permutation, spins, dynamics,"
            " cogwheel; no oracles, no rendering",
            generate=orbits_lib_cases,
            call=run_orbits_lib,
            check=check_orbits_lib,
            fingerprint=orbits_lib_fingerprint,
            output_bytes=lambda output: 0,
        ),
    )
}
