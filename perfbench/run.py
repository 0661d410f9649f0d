"""spinzero benchmark: one closed-loop client calling the package in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the directory above this file: the package is imported
from its `src/`, and files are written only to its `.perfbench/`.  The seed
generates every input.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run.  Every time
is scaled to a reference host speed (see `speed.py`).  Every output is
checked against the benchmark's own oracle; the last stdout line is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

# One BLAS thread, set before numpy loads: the runs are steadier on a shared
# machine, and the benchmark never uses more threads than there are cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import Speedometer  # noqa: E402
from tracer import COUNT_METRICS, TIME_METRICS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, check_refute_report  # noqa: E402

COLD_CLI_REPS = 5
CHILD_TIMEOUT_S = 120

# Metrics of one command, reported where the workload runs it.
COMMAND_METRICS = {"refute": "refute_ms", "run": "run_ms", "sample": "sample_ms",
                   "audit-function": "audit_function_ms",
                   "audit-invariance": "audit_invariance_ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: run one op in a fresh process and report set-up")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def tail(values):
    """The highest percentile with at least ten samples above it, as
    (value, percentile); with fewer than eleven samples, the maximum."""
    s = sorted(values)
    rank = len(s) - 10
    if rank < 1:
        return s[-1], 100.0
    return s[rank - 1], 100.0 * rank / len(s)


# ---------------------------------------------------------------------------
# runs

class Ledger:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("; ".join(errors)[:500])

    def check(self, wl, outputs) -> None:
        try:
            errors = wl.check(outputs)
        except Exception as exc:  # malformed output is a failed op
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.record(errors)


def run_op(op, ledger):
    """One op; returns (start, end, per-command (start, end), outputs or None)."""
    t0 = perf_counter()
    try:
        outputs, times = op()
    except Exception as exc:  # a raised error is a failed op, not a crash
        ledger.record([f"op raised {type(exc).__name__}: {exc}"])
        return t0, perf_counter(), {}, None
    return t0, perf_counter(), times, outputs


class Window:
    """The ops of one closed-loop window, timed on the wall clock and
    scaled to the reference speed."""

    def __init__(self, records, speed):
        self.wall = [t1 - t0 for t0, t1, _, _ in records]
        self.scaled = [speed.scaled(t0, t1) for t0, t1, _, _ in records]
        self.commands = {}
        for cmd, metric in COMMAND_METRICS.items():
            values = [speed.scaled(*times[cmd]) for _, _, times, _ in records
                      if cmd in times]
            if values:
                self.commands[metric] = statistics.median(values) * 1e3

    def p50_ms(self) -> float:
        return statistics.median(self.scaled) * 1e3


def closed_loop(wl, seconds, ledger, speed, tracer=None):
    """Run ops back to back for `seconds` of wall time (at least one op),
    stopping before an op that would end past the window; check outputs
    afterwards."""
    op = wl.op if tracer is None else tracer.wrap("bench.op", wl.op)
    records = []
    start = perf_counter()
    last = 0.0
    while not records or perf_counter() - start + last <= seconds:
        if tracer is not None:
            tracer.op = len(records)
        t0, t1, times, outputs = run_op(op, ledger)
        last = t1 - t0
        records.append((t0, t1, times, outputs))
    if tracer is not None:
        tracer.op = None
    for _, _, _, outputs in records:
        if outputs is not None:
            ledger.check(wl, outputs)
    return Window(records, speed)


def setup_probes(wl, ledger):
    """Fresh processes, each importing spinzero and running one op: returns
    (set-up seconds, peak RSS in MB) per probe.  Set-up runs from spawning
    the interpreter to the end of its op, on the system-wide monotonic clock.
    It is scaled by the host speed the probe measured in itself, less the
    time its own speed samples took."""
    setups, rss = [], []
    for _ in range(wl.setup_reps):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
             "--seed", str(wl.seed), "--probe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            ledger.record([f"set-up probe exit {proc.returncode}: {proc.stderr[-300:]}"])
            continue
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append((info["end"] - t0 - info["kernel_s"]) * info["speed"])
        rss.append(info["maxrss_kb"] * 1024 / 1e6)
        with open(probe_path(wl), "rb") as fh:
            outputs = pickle.load(fh)  # written by the probe just above
        os.remove(probe_path(wl))
        ledger.check(wl, outputs)
    return setups, rss


def probe(wl) -> int:
    """Body of a set-up probe process: one op, then on stdout the clock, the
    host speed, the time the speed samples took and peak RSS, and the
    outputs in a file for the parent to check."""
    with Speedometer() as speed:
        start = perf_counter()
        wl.load()
        outputs, _ = wl.op()
        end = time.monotonic()
        stop = perf_counter()
    kernel_s = speed.warm_up_s + sum(speed.seconds)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(probe_path(wl), "wb") as fh:
        pickle.dump(outputs, fh)
    print(json.dumps({"end": end, "speed": speed.speed(start, stop), "kernel_s": kernel_s,
                      "maxrss_kb": maxrss_kb}))
    return 0


def probe_path(wl) -> str:
    return os.path.join(WORKDIR, f"probe-{wl.name}-{wl.seed}.pkl")


def cold_cli(ledger, speed):
    """Scaled wall time of fresh `python -m spinzero.cli refute` processes."""
    times = []
    for _ in range(COLD_CLI_REPS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spinzero.cli", "refute", "--format", "json"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        times.append(speed.scaled(t0, perf_counter(), in_process=False))
        ledger.record([f"cold refute exit {proc.returncode}"] if proc.returncode
                      else check_refute_report(json.loads(proc.stdout)))
    return statistics.median(times)


def warm_up(wl, ledger) -> None:
    """The first op of a process, untimed: imports and lazy set-up finish."""
    wl.load()
    _, _, _, outputs = run_op(wl.op, ledger)
    if outputs is not None:
        ledger.check(wl, outputs)


def end_to_end(wl, seconds, ledger, speed):
    """The untraced run: (metrics for the result line, lines to print)."""
    setups, rss = setup_probes(wl, ledger)
    cold = cold_cli(ledger, speed) if wl.name == "paper-audit" else None
    warm_up(wl, ledger)
    window = closed_loop(wl, seconds, ledger, speed)
    tail_s, pct = tail(window.scaled)
    metrics = {
        "setup_s": (statistics.median(setups or [0.0]), "s"),
        "op_p50_ms": (window.p50_ms(), "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(window.scaled) / sum(window.scaled), "1/s"),
        "peak_rss_mb": (statistics.median(rss or [0.0]), "MB"),
    }
    shown = dict(metrics)
    shown["fail_ratio"] = (ledger.failed / ledger.attempted, "ratio")
    shown.update({k: (v, "ms") for k, v in window.commands.items()})
    if cold is not None:
        shown["cold_cli_s"] = (cold, "s")
    lines = [f"{name}: {value:.6g} {unit}" for name, (value, unit) in shown.items()]
    lines.append(f"op_tail_ms is p{pct:.0f} of {len(window.scaled)} timed ops; setup_s and "
                 f"peak_rss_mb are medians of {len(setups)} fresh processes")
    lines.append(f"unscaled wall clock: op median {statistics.median(window.wall) * 1e3:.6g} ms")
    return metrics, lines


def traced(wl, seconds, ledger, speed):
    """The traced run: half the window untraced, half traced; per-layer
    metrics are medians (times) or exact per-op counts over the traced ops."""
    cold = cold_cli(ledger, speed) if wl.name == "paper-audit" else None
    warm_up(wl, ledger)
    plain = closed_loop(wl, seconds / 2, ledger, speed)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = closed_loop(wl, seconds / 2, ledger, speed, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORKDIR, f"trace-{wl.name}-{wl.seed}.jsonl"))
    # Self times are scaled by the speed factor of the op they fall in.
    factors = [s / w for s, w in zip(with_trace.scaled, with_trace.wall)]
    layers, mismatches = summarize(tracer.per_op(), factors)
    for message in mismatches:
        ledger.record([message])

    units = dict(COUNT_METRICS + TIME_METRICS)
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    metrics["trace.overhead_ratio"] = (with_trace.p50_ms() / plain.p50_ms(), "ratio")
    for metric in COMMAND_METRICS.values():
        metrics[metric] = (plain.commands.get(metric, 0.0), "ms")
    metrics["cold_cli_s"] = (cold or 0.0, "s")
    metrics["fail_ratio"] = (ledger.failed / ledger.attempted, "ratio")
    lines = [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{len(plain.wall)} untraced and {len(with_trace.wall)} traced ops; "
                 f"{len(tracer.spans)} spans")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "spinzero", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "scenarios", "refutation.qsc"))):
        print(f"perfbench: {ROOT} is not a spinzero source checkout "
              "(needs src/spinzero and scenarios/refutation.qsc)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, WORKDIR)
    if args.probe:
        return probe(wl)

    wl.prepare()
    ledger = Ledger()
    run = traced if args.trace else end_to_end
    with Speedometer() as speed:
        metrics, lines = run(wl, args.seconds, ledger, speed)
    env = environment()
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for message in ledger.messages:
        print(f"FAILED: {message}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
