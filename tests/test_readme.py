"""The quick-start example of README.md runs as written, and the package exports what it defines."""

import dataclasses
import inspect
import re
import types
from pathlib import Path

import permlog
from permlog.cli import COGWHEEL_CAP, MAX_SWEEP_STEPS
from permlog.linalg import DEFAULT_EQ_TOL
from permlog.spins import SPIN_CAP

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_block_runs():
    code = quick_start_code()
    assert "pl.bch_chain(word)" in code
    exec(compile(code, f"{README.name} quick start", "exec"), {})


def test_exports_are_the_public_names():
    public = {name for name, value in vars(permlog).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(permlog.__all__) == sorted(public)
    namespace: dict = {}
    exec("from permlog import *", namespace)
    assert set(permlog.__all__) <= set(namespace)
    # names that only the tests used are gone; the generic series and commutator live in tests/oracles.py
    for name in ("bch_series_truncated", "commutator", "CogwheelSpectrum", "PerturbationConfig", "BchChainResult",
                 "eigenphases"):
        assert not hasattr(permlog, name)
    for name in ("spin_down", "spin_value", "up_count", "down_count", "flipped"):
        assert not hasattr(permlog.SpinConfiguration, name)
    assert "timestep" not in {f.name for f in dataclasses.fields(permlog.BlockHamiltonianReport)}
    assert list(inspect.signature(permlog.superposition_leakage).parameters) == ["m"]
    assert list(inspect.signature(permlog.perturbation_leakage).parameters) == ["word", "epsilon"]
    assert list(inspect.signature(permlog.Permutation.matrix).parameters) == ["self"]


def test_readme_limits_are_the_code_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())  # a line break reads as a space
    assert f"`cogwheel --n` is capped at {COGWHEEL_CAP}" in text
    assert f"`bch --k-range` must be in 0..{(MAX_SWEEP_STEPS - 2) // 4}" in text
    assert f"`--epsilon-sweep` takes at most {MAX_SWEEP_STEPS} steps" in text
    assert f"tolerance is `{DEFAULT_EQ_TOL:g}`" in text
    assert f"the spin count is capped at {SPIN_CAP}" in text
