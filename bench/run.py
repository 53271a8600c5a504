"""Run one permlog benchmark workload and print its metrics.

    python3 bench/run.py --workload spin-json --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the program is imported from ``src/`` next to this
directory. Load is a closed loop with one client in one process: each call
starts when the previous one has returned, and every output is checked after
its call, outside the timed region. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls of the same
inputs and prints the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
environment metadata, and the spans of a traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a two-thread BLAS product waits for its slower thread, so a
# busy neighbour on a shared 2-core host slows it far more than serial work (in
# one slow spell, bch-probe calls took 2.7x their usual time and the mostly
# serial spin-json calls 1.5x).
BLAS_THREADS = 1

# A fresh interpreter pays this before its first call: import the package and
# its CLI, and generate the workload's inputs.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import permlog, permlog.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]))"
)


def prepare_process() -> None:
    """Fix the BLAS thread count before numpy loads, and import permlog from SRC."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc()))
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """The thread count numpy's OpenBLAS reports, or the environment setting if it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_commit():
    if not (ROOT / ".git").exists():  # an exported checkout is not a repository
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that imports permlog and generates the inputs."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls and rounds each time up to 50 ms steps.
    subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


WARMUP, UNTRACED, TRACED = "warmup", "untraced", "traced"


class Run:
    """The calls of one run, their wall times and the failures their checks found."""

    def __init__(self, workload, cases, recorder=None):
        import workloads

        self.workload = workload
        self.cases = cases
        self.expected = [workloads.expected(c) for c in cases]
        self.recorder = recorder
        self.fingerprints: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.times = {WARMUP: [], UNTRACED: [], TRACED: []}  # wall time of every call
        self.verified_times = {WARMUP: [], UNTRACED: [], TRACED: []}
        self.traced_calls = []
        self.output_bytes = []

    @property
    def timed_s(self) -> float:
        return sum(self.times[UNTRACED]) + sum(self.times[TRACED])

    @property
    def failed(self) -> int:
        return self.attempted - sum(len(v) for v in self.verified_times.values())

    def attempt(self, index: int, phase: str) -> None:
        case = self.cases[index]
        self.attempted += 1
        call_id = self.attempted
        start = time.perf_counter()
        try:
            if phase == TRACED:
                output = self.recorder.call(call_id, self.workload.call, case)
            else:
                output = self.workload.call(case)
        except Exception as exc:  # a raising call is a failed call; the loop goes on
            self.times[phase].append(time.perf_counter() - start)
            self.failures.append(f"call {call_id} ({index}): {type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - start
        self.times[phase].append(wall)
        fails = self.check(index, output)
        if phase == TRACED:
            spans = self.recorder.call_spans(call_id)
            fails += [f"trace: {f}" for f in tracer.nesting_failures(spans)]
            self.traced_calls.append(spans)
            self.output_bytes.append(self.workload.output_bytes(output))
        del output
        if fails:
            self.failures += [f"call {call_id} ({index}): {f}" for f in fails]
        else:
            self.verified_times[phase].append(wall)

    def check(self, index: int, output) -> list[str]:
        try:
            fails = self.workload.check(self.cases[index], self.expected[index], output)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
        fingerprint = self.workload.fingerprint(output)
        if self.fingerprints.setdefault(index, fingerprint) != fingerprint:
            fails.append("output differs from an earlier call with the same input")
        return fails


# The first call in a process pays for growing the heap (about 0.9 s of a 2 s
# spin-json call); one untimed, checked warm-up call keeps it out of the timed calls.


def run_untraced(run: Run, seconds: float, probe) -> list[float]:
    """Calls until ``seconds`` of call time; returns the setup times measured between them.

    The setup probes are spread evenly over the run, outside the timed calls,
    so that their median sees the same machine as the calls do.
    """
    setup_times: list[float] = []
    run.attempt(0, WARMUP)
    index = 0
    while index == 0 or run.timed_s < seconds:
        if len(setup_times) < SETUP_REPEATS * run.timed_s / seconds:
            setup_times.append(probe())
        run.attempt(index % len(run.cases), UNTRACED)
        index += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe())
    return setup_times


def run_traced(run: Run, seconds: float) -> None:
    """Each input untraced and traced, cycling through the inputs until ``seconds`` of call time.

    The order within a pair alternates, so neither side always runs on caches the other warmed.
    """
    run.attempt(0, WARMUP)
    index = 0
    while index == 0 or run.timed_s < seconds:
        case = index % len(run.cases)
        for phase in (UNTRACED, TRACED) if index % 2 == 0 else (TRACED, UNTRACED):
            run.attempt(case, phase)
        index += 1


def end_to_end_metrics(run: Run, setup_times: list[float]) -> dict[str, float]:
    untraced = run.times[UNTRACED]
    verified = run.verified_times[UNTRACED]
    return {
        "calls_per_s": len(verified) / sum(untraced),
        "call_p50_s": statistics.median(verified or untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    metrics = tracer.layer_metrics(run.traced_calls) if run.traced_calls else {}
    metrics["cli.output_bytes"] = statistics.fmean(run.output_bytes) if run.output_bytes else 0.0
    untraced_rate = len(run.times[UNTRACED]) / sum(run.times[UNTRACED])
    traced_rate = len(run.times[TRACED]) / sum(run.times[TRACED])
    metrics["trace.overhead"] = traced_rate / untraced_rate
    return metrics


def run_workload(args, spec: dict) -> int:
    import permlog
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if Path(permlog.__file__).resolve().parent != SRC / "permlog":
        print(f"error: imported permlog from {permlog.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **environment()}
    cases = workload.generate(args.seed)
    setup_times: list[float] = []

    if args.trace:
        with tracer.Tracer() as spans:
            run = Run(workload, cases, spans)
            run_traced(run, args.seconds)
        metrics = per_layer_metrics(run)
        wanted = spec["per_layer"]
    else:
        run = Run(workload, cases)
        setup_times = run_untraced(run, args.seconds, lambda: setup_probe(args.workload, args.seed))
        metrics = end_to_end_metrics(run, setup_times)
        wanted = spec["end_to_end"]

    failed = run.failed
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report = {"result": result, "environment": env, "setup_s": setup_times,
              "call_s": run.times, "failures": run.failures}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans.write(OUT_DIR / f"{stem}-spans.jsonl.gz")

    print(f"permlog benchmark: {args.workload}, seed {args.seed}, "
          f"{run.timed_s:.1f} s measured, trace {'on' if args.trace else 'off'}")
    print("environment: " + json.dumps(env))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for m in wanted:
        print(f"  {m['name']:40s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / run.attempted:14.6g} ({failed}/{run.attempted} calls)")
    if not args.trace:
        print(f"  call_p50_s over {len(run.verified_times[UNTRACED])} calls; "
              f"setup_s is the median of {len(setup_times)} fresh interpreters")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary table."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permlog" / "__init__.py").is_file():
        print(f"error: no permlog sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare_process()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
