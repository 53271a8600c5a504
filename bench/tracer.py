"""Outside-in tracing of permlog for the benchmark's traced run.

The tracer wraps every public function defined in a ``permlog`` module, under
every name it is bound to (its home module, the package namespace and each
module that imports it), plus the ``Permutation`` methods ``__mul__``,
``cycles``, ``matrix`` and ``order``. Each wrapper records a span in memory;
nothing inside permlog changes. A span's self time is its duration minus the
time its child spans cover, so per call the self times of all spans, including
the benchmark's own root span (the untraced time), add up to the call's wall
time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("cli", "linalg", "bch", "dynamics", "cogwheel", "permutation", "spins")
PERMUTATION_METHODS = ("__mul__", "cycles", "matrix", "order")
ROOT_MODULE = "untraced"  # the root span of each call; its self time is the untraced time
NESTING_SLACK_S = 1e-9


@dataclass(frozen=True, slots=True)
class Span:
    span_id: int
    parent_id: int  # -1 for the root span of a call
    call_id: int
    module: str
    name: str
    start: float
    end: float
    error: bool = False
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _call_key(signature):
    def key(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"key": tuple(bound.arguments.values())}

    return key


# Counts recorded at the span boundary, from the arguments or the result.
# Byte counts are computed from array sizes, not measured.
_ATTRS = {
    ("linalg", "expm"): lambda args, kwargs, result: {"bytes_in": _nbytes(args[0])},
    ("dynamics", "hamiltonian_from_permutation"): lambda args, kwargs, result: {
        "bytes": _nbytes(result.matrix)
    },
    ("dynamics", "orbit_decomposition"): lambda args, kwargs, result: {"cycles": len(result.cycles)},
    ("dynamics", "uniform_polynomial_form"): lambda args, kwargs, result: {"period": len(result)},
    ("permutation", "Permutation.cycles"): lambda args, kwargs, result: {"key": hash(args[0])},
}


class Tracer:
    """Installs span-recording wrappers into permlog; use as a context manager.

    Spans are recorded only inside :meth:`call`; elsewhere a wrapper only
    checks that no call is open. Leaving the context restores every binding.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._call_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        import permlog

        modules = [permlog] + [importlib.import_module(f"permlog.{name}") for name in MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value) and _is_public_permlog(value)):
                    continue
                if id(value) not in wrappers:
                    home = value.__module__.rsplit(".", 1)[-1]
                    wrappers[id(value)] = self._wrap(value, home, value.__name__)
                self._patch(module, attr, wrappers[id(value)])
        perm_cls = permlog.Permutation
        for attr in PERMUTATION_METHODS:
            method = vars(perm_cls)[attr]
            self._patch(perm_cls, attr, self._wrap(method, "permutation", f"Permutation.{attr}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, module: str, name: str):
        attrs_of = _ATTRS.get((module, name))
        # key (L, T) with defaults filled in, so f(4) and f(4, 1.0) count as one block
        if (module, name) == ("cogwheel", "cogwheel_hamiltonian"):
            attrs_of = _call_key(inspect.signature(fn))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None if error or attrs_of is None else attrs_of(args, kwargs, result)
                self.spans.append(
                    Span(span_id, parent, self._call_id, module, name, start, end, error, attrs)
                )
            return result

        return wrapper

    # -- recording --------------------------------------------------------

    def call(self, call_id: int, fn, *args):
        """Run ``fn(*args)`` as one traced call under a root span and return its result."""
        if self._stack:
            raise RuntimeError("traced calls do not nest")
        root = self._next_id
        self._next_id += 1
        self._call_id = call_id
        self._stack.append(root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(root, -1, call_id, ROOT_MODULE, "call", start, end))

    def call_spans(self, call_id: int) -> list[Span]:
        """The spans of the latest call, which are at the end of the list."""
        k = len(self.spans)
        while k and self.spans[k - 1].call_id == call_id:
            k -= 1
        return self.spans[k:]

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.span_id, s.parent_id, s.call_id, s.module, s.name,
                                     s.start, s.end, s.error, s.attrs]) + "\n")


def _is_public_permlog(fn) -> bool:
    module = getattr(fn, "__module__", "") or ""
    return (module == "permlog" or module.startswith("permlog.")) and not fn.__name__.startswith("_")


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id >= 0:
            covered[s.parent_id] += s.duration
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def nesting_failures(spans: list[Span]) -> list[str]:
    """Problems with one call's span tree: a single root, children inside parents, no overlaps."""
    roots = [s for s in spans if s.parent_id < 0]
    if len(roots) != 1:
        return [f"expected one root span, found {len(roots)}"]
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    fails = []
    for s in spans:
        if s.parent_id < 0:
            continue
        parent = by_id.get(s.parent_id)
        if parent is None:
            fails.append(f"span {s.name} has no parent in its call")
            continue
        if s.start < parent.start - NESTING_SLACK_S or s.end > parent.end + NESTING_SLACK_S:
            fails.append(f"span {s.name} leaves its parent {parent.name}")
        children[s.parent_id].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end - NESTING_SLACK_S:
                fails.append(f"sibling spans {a.name} and {b.name} overlap")
    selfs = self_times(spans)
    wall = roots[0].duration
    if not math.isclose(sum(selfs.values()), wall, rel_tol=1e-9, abs_tol=NESTING_SLACK_S):
        fails.append("self times do not add up to the call's wall time")
    return fails


@dataclass
class FunctionTotals:
    self_s: float = 0.0
    calls: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes: int = 0
    cycles: int = 0
    period: int = 0
    distinct_keys: int = 0


def call_totals(spans: list[Span]) -> dict[tuple[str, str], FunctionTotals]:
    """Per (module, function) totals over the spans of one call."""
    selfs = self_times(spans)
    totals: dict[tuple[str, str], FunctionTotals] = defaultdict(FunctionTotals)
    keys: dict[tuple[str, str], set] = defaultdict(set)
    for s in spans:
        t = totals[(s.module, s.name)]
        t.self_s += selfs[s.span_id]
        t.calls += 1
        t.errors += s.error
        for field, value in (s.attrs or {}).items():
            if field == "key":
                keys[(s.module, s.name)].add(value)
            else:
                setattr(t, field, getattr(t, field) + value)
    for fn, seen in keys.items():
        totals[fn].distinct_keys = len(seen)
    return dict(totals)


# Per-layer metric -> (module, functions, FunctionTotals field). Function names
# are as recorded in spans; several functions summed under one metric share a job.
FUNCTION_METRICS = {
    "linalg.expm.s": ("linalg", ("expm",), "self_s"),
    "linalg.expm.calls": ("linalg", ("expm",), "calls"),
    "linalg.expm.bytes_in": ("linalg", ("expm",), "bytes_in"),
    "linalg.exp_involution.s": ("linalg", ("exp_involution",), "self_s"),
    "linalg.exp_involution.calls": ("linalg", ("exp_involution",), "calls"),
    "linalg.max_abs_diff.s": ("linalg", ("max_abs_diff",), "self_s"),
    "linalg.max_abs_diff.calls": ("linalg", ("max_abs_diff",), "calls"),
    "bch.bch_chain.s": ("bch", ("bch_chain",), "self_s"),
    "bch.coupling_variant_check.s": ("bch", ("coupling_variant_check",), "self_s"),
    "bch.perturb_coupling.s": ("bch", ("perturb_coupling",), "self_s"),
    "bch.superposition_leakage.s": ("bch", ("superposition_leakage",), "self_s"),
    "dynamics.evolution_permutation.s": ("dynamics", ("evolution_permutation",), "self_s"),
    "dynamics.orbit_decomposition.s": ("dynamics", ("orbit_decomposition",), "self_s"),
    "dynamics.hamiltonian_from_permutation.s": (
        "dynamics", ("hamiltonian_from_permutation",), "self_s"),
    "dynamics.hamiltonian_bytes": ("dynamics", ("hamiltonian_from_permutation",), "bytes"),
    "dynamics.polynomial_matrix.s": ("dynamics", ("polynomial_matrix",), "self_s"),
    "dynamics.polynomial_matrix.calls": ("dynamics", ("polynomial_matrix",), "calls"),
    "dynamics.spectrum.s": ("dynamics", ("spectrum",), "self_s"),
    "dynamics.cycles": ("dynamics", ("orbit_decomposition",), "cycles"),
    "dynamics.polynomial_period": ("dynamics", ("uniform_polynomial_form",), "period"),
    "cogwheel.hamiltonian.s": ("cogwheel", ("cogwheel_hamiltonian",), "self_s"),
    "cogwheel.hamiltonian.calls": ("cogwheel", ("cogwheel_hamiltonian",), "calls"),
    "cogwheel.polynomial_coefficients.s": ("cogwheel", ("polynomial_coefficients",), "self_s"),
    "permutation.compose.calls": ("permutation", ("Permutation.__mul__",), "calls"),
    "permutation.cycles.calls": ("permutation", ("Permutation.cycles",), "calls"),
    "permutation.matrix.s": ("permutation", ("Permutation.matrix",), "self_s"),
    "permutation.matrix.calls": ("permutation", ("Permutation.matrix",), "calls"),
    "spins.exchange_permutation.s": ("spins", ("exchange_permutation",), "self_s"),
    "spins.exchange_permutation.calls": ("spins", ("exchange_permutation",), "calls"),
    "spins.number_ops.s": ("spins", ("number_up", "number_down", "spinflip"), "self_s"),
    "trace.untraced_s": (ROOT_MODULE, ("call",), "self_s"),
}


def layer_metrics(calls: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of the traced calls, each the mean over calls of its per-call value."""
    out: dict[str, float] = defaultdict(float)
    for spans in calls:
        totals = call_totals(spans)
        for module in MODULES:
            mine = [t for (m, _), t in totals.items() if m == module]
            out[f"{module}.self_s"] += sum(t.self_s for t in mine)
            out[f"{module}.errors"] += sum(t.errors for t in mine)
        for metric, (module, names, field) in FUNCTION_METRICS.items():
            out[metric] += sum(getattr(totals[(module, n)], field) for n in names if (module, n) in totals)
        # repeated work: cogwheel blocks built more than once per (L, T), cycles of one permutation
        ham = totals.get(("cogwheel", "cogwheel_hamiltonian"))
        out["cogwheel.hamiltonian.repeat_share"] += 1 - ham.distinct_keys / ham.calls if ham else 0.0
        cyc = totals.get(("permutation", "Permutation.cycles"))
        out["permutation.cycles.per_perm"] += cyc.calls / cyc.distinct_keys if cyc else 0.0
    return {metric: value / len(calls) for metric, value in out.items()}
