"""Tests of the benchmark itself: span arithmetic, seeded inputs, and that tracing changes nothing."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import permlog  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT_MODULE, Span  # noqa: E402


def synthetic_call():
    """root [0, 10] holds A [1, 6] and D [7, 9]; A holds B [2, 4] and C [4.5, 5]."""
    return [
        Span(2, 1, 1, "cogwheel", "cogwheel_hamiltonian", 2.0, 4.0, attrs={"key": (3, 1.0)}),
        Span(3, 1, 1, "cogwheel", "cogwheel_hamiltonian", 4.5, 5.0, attrs={"key": (3, 1.0)}),
        Span(1, 0, 1, "dynamics", "hamiltonian_from_permutation", 1.0, 6.0, attrs={"bytes": 64}),
        Span(4, 0, 1, "linalg", "expm", 7.0, 9.0, attrs={"bytes_in": 128}),
        Span(0, -1, 1, ROOT_MODULE, "call", 0.0, 10.0),
    ]


def test_self_times_of_a_nested_tree():
    selfs = tracer.self_times(synthetic_call())
    assert selfs == {0: 3.0, 1: 2.5, 2: 2.0, 3: 0.5, 4: 2.0}
    assert sum(selfs.values()) == 10.0
    assert tracer.nesting_failures(synthetic_call()) == []


def test_layer_metrics_of_a_nested_tree():
    metrics = tracer.layer_metrics([synthetic_call(), synthetic_call()])
    assert metrics["dynamics.self_s"] == 2.5
    assert metrics["cogwheel.self_s"] == 2.5
    assert metrics["cogwheel.hamiltonian.calls"] == 2
    assert metrics["cogwheel.hamiltonian.repeat_share"] == 0.5
    assert metrics["linalg.expm.s"] == 2.0
    assert metrics["linalg.expm.bytes_in"] == 128
    assert metrics["dynamics.hamiltonian_bytes"] == 64
    assert metrics["trace.untraced_s"] == 3.0
    assert metrics["spins.self_s"] == 0.0


@pytest.mark.parametrize(
    "bad, message",
    [
        (Span(5, 0, 1, "linalg", "expm", 8.0, 11.0), "leaves its parent"),
        (Span(5, 0, 1, "linalg", "expm", 5.5, 6.5), "overlap"),
        (Span(5, 9, 1, "linalg", "expm", 9.5, 9.6), "no parent"),
    ],
)
def test_nesting_failures_find_broken_trees(bad, message):
    failures = tracer.nesting_failures(synthetic_call() + [bad])
    assert any(message in f for f in failures)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    assert len(generate(7)) == len(set(generate(7))) > 1


@pytest.mark.parametrize("seed", range(20))
def test_words_touch_every_spin(seed):
    for workload in workloads.WORKLOADS.values():
        for case in workload.generate(seed):
            assert {s for pair in case.factors for s in pair} == set(range(1, case.n + 1))
            assert len(case.factors) >= case.n - 1


@pytest.mark.parametrize("seed", range(20))
def test_bch_words_end_in_two_disjoint_pairs(seed):
    for case in workloads.bch_probe_cases(seed):
        assert not set(case.factors[-2]) & set(case.factors[-1])


def small_cases():
    yield "spin-json", workloads.spin_json_cases(3, n=4, count=4)
    yield "bch-probe", workloads.bch_probe_cases(3, n=6, count=4)
    yield "orbits-lib", workloads.orbits_lib_cases(3, n=5, count=4)


def comparable(output):
    """Everything a call returns, as bytes-like values that compare exactly."""
    if isinstance(output[0], int):  # CLI: exit code, stdout, warnings
        return output
    orbits, report, coeffs, spec, caught = output
    return (orbits, report.matrix.tobytes(), coeffs.tobytes(), spec, caught)


@pytest.mark.parametrize("name, cases", list(small_cases()))
def test_traced_calls_leave_outputs_byte_identical(name, cases):
    workload = workloads.WORKLOADS[name]
    plain = [workload.call(case) for case in cases]
    originals = (permlog.expm, permlog.linalg.expm, permlog.cli.main, permlog.Permutation.__mul__)
    traced, trees = [], []
    with tracer.Tracer() as spans:
        for k, case in enumerate(cases):
            traced.append(spans.call(k, workload.call, case))
            trees.append(spans.call_spans(k))
        assert permlog.bch.expm is not originals[1]
    assert (permlog.expm, permlog.linalg.expm, permlog.cli.main, permlog.Permutation.__mul__) == originals
    for case, before, after in zip(cases, plain, traced):
        assert comparable(after) == comparable(before)
        assert workload.check(case, workloads.expected(case), after) == []
    for tree in trees:
        assert tracer.nesting_failures(tree) == []
    modules = {s.module for s in spans.spans}
    assert {"dynamics", "permutation", "spins"} <= modules


def test_bitswap_oracle_matches_the_evolution_permutation():
    for case in workloads.spin_json_cases(5, n=6):
        perm = permlog.evolution_permutation(permlog.parse_word(workloads.word_text(case.factors), case.n))
        assert np.array_equal(workloads.bitswap_images(case.n, case.factors), np.array(perm.map))
