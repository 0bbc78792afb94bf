"""Benchmark of the igf library and CLI, checked against an independent oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is taken from ``src/``
and nothing else is needed.  With ``--trace 0`` a run measures the
end-to-end metrics: it sets up several times (inputs, files, import and one
untimed warm-up op), then runs the workload's op sequence for ``--seconds``
seconds of wall time, ops and output checks together, in whole rotations
for the CLI workloads.  Times are scaled to a reference CPU speed by the
probe in ``probe.py``; the raw figures are printed too.  With ``--trace 1``
a run replays the op sequence in-process, once plain and once under the
span recorder of ``spans.py``, and reports the per-layer metrics.  Every
output is checked against ``oracle.py``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give every metric with its unit and sample count, and
the environment.  Workloads are defined in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import probe
from oracle import Oracle, Outcome, mpmath
from spans import Tracer, check_nesting, layer_metrics, self_times
from workloads import (
    WORKLOADS,
    Workload,
    cli_ops,
    lib_cycle,
    lib_fixed_sets,
    lib_inputs,
    warm_up_op,
    write_cli_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_RUN_S = 150.0  # start no new op after this, so a run ends within 180 s
IMPORT_SAMPLES = 5
LIB_OPS_PER_PROBE = 32

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.import_cpu_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.render_ms": "ms",
    "cli.errors": "count",
    "distributions.construct_ms": "ms",
    "distributions.calls": "count",
    "distributions.entries": "count",
    "distributions.realize_ms": "ms",
    "distributions.errors": "count",
    "generating_functions.self_ms": "ms",
    "generating_functions.calls": "count",
    "generating_functions.terms": "count",
    "generating_functions.ns_per_term": "ns",
    "generating_functions.errors": "count",
    "escort.self_ms": "ms",
    "escort.calls": "count",
    "escort.transforms_per_verify": "ratio",
    "escort.errors": "count",
    "closed_forms.zeta_ms": "ms",
    "closed_forms.zeta_calls": "count",
    "closed_forms.zeta_cache_hit_ratio": "ratio",
    "closed_forms.self_ms": "ms",
    "closed_forms.errors": "count",
    "trace.overhead_ratio": "ratio",
}


# ------------------------------------------------------------- child processes


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    probes_s: list[float]  # speed probes on the child's CPU, see probe.py
    stdout: str

    @property
    def slowdown(self) -> float:
        return statistics.median(self.probes_s) / probe.REFERENCE_S


class Launcher:
    """Runs children through ``launcher.py`` and reads back their rusage.

    Children run with the caller's environment, in ``src/`` so that
    ``python -m igf.cli`` finds the package.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], out_path: Path, timeout_s: float) -> ChildRun:
        request = {"argv": [sys.executable, *argv], "cwd": str(SRC),
                   "stdout": str(out_path), "timeout_s": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return ChildRun(**reply, stdout=out_path.read_text())

    def terminate(self) -> None:
        """Stop the launcher and the child it runs, if any."""
        self._proc.terminate()

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def measure_import(launcher: Launcher, tmp: Path) -> dict[str, float]:
    """Fresh-process ``import igf.cli`` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(launcher.run(["-c", "pass"], tmp / "import.out", 60.0))
        full.append(launcher.run(["-c", "import igf.cli"], tmp / "import.out", 60.0))

    def diff(field: str) -> float:
        return 1e3 * (
            statistics.median(getattr(r, field) for r in full)
            - statistics.median(getattr(r, field) for r in bare)
        )

    return {"cli.import_ms": diff("wall_s"), "cli.import_cpu_ms": diff("cpu_s")}


# ------------------------------------------------------------- results


class Run:
    """Samples, failures and checked outputs gathered by one benchmark run."""

    def __init__(self):
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.slowdown: list[float] = []  # what the speed probe saw, per op
        self.setup_s: list[float] = []
        self.setup_slowdown: list[float] = []
        self.peak_rss_mb = 0.0
        self.failed = 0
        self.outcome = Outcome()
        self._verdicts: dict = {}

    def record(self, wall_s: float, cpu_s: float, slowdown: float, got: Outcome) -> None:
        self.wall_s.append(wall_s)
        self.cpu_s.append(cpu_s)
        self.slowdown.append(slowdown)
        self.failed += not got.ok
        self.outcome.merge(got)

    def check_cli(self, oracle: Oracle, op, returncode: int, stdout: str, out_file: str | None) -> Outcome:
        """Check a CLI op's output; identical outputs of one op share a verdict."""
        key = (op.check, returncode, _digest(stdout), out_file and _digest(out_file))
        if key not in self._verdicts:
            self._verdicts[key] = oracle.check_cli(op.check, returncode, stdout, out_file)
        return self._verdicts[key]

    @property
    def attempted(self) -> int:
        return len(self.wall_s)


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics.  Every time sample is divided by the slowdown
    the speed probe saw when it was taken (see probe.py); the raw medians
    and the median slowdown are reported next to them."""
    n = run.attempted
    wall_ms = [1e3 * w / s for w, s in zip(run.wall_s, run.slowdown)]
    cpu_ms = [1e3 * c / s for c, s in zip(run.cpu_s, run.slowdown)]
    setups = [t / s for t, s in zip(run.setup_s, run.setup_slowdown)]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (1e3 * n / sum(wall_ms), "1/s", n),
        "op_p50_ms": (statistics.median(wall_ms), "ms", n),
        "op_cpu_ms": (statistics.median(cpu_ms), "ms", n),
        "peak_rss_mb": (run.peak_rss_mb, "MB", n),
    }
    # report-only from here: percentiles need enough samples beyond them
    if n >= 100:
        metrics["op_p90_ms"] = (statistics.quantiles(wall_ms, n=10)[-1], "ms", n)
    if n >= 1000:
        metrics["op_p99_ms"] = (statistics.quantiles(wall_ms, n=100)[-1], "ms", n)
    metrics["failed_op_ratio"] = (run.failed / n, "ratio", n)
    metrics["max_rel_err"] = (run.outcome.max_rel_err, "ratio", run.outcome.checked)
    metrics["unchecked_outputs"] = (run.outcome.unchecked, "count", n)
    metrics["raw_setup_s"] = (statistics.median(run.setup_s), "s", len(setups))
    metrics["raw_ops_per_s"] = (n / sum(run.wall_s), "1/s", n)
    metrics["raw_op_p50_ms"] = (1e3 * statistics.median(run.wall_s), "ms", n)
    metrics["raw_op_cpu_ms"] = (1e3 * statistics.median(run.cpu_s), "ms", n)
    metrics["slowdown"] = (statistics.median(run.slowdown), "ratio", n)
    return metrics


def environment(workload: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        with contextlib.suppress(OSError):
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mpmath": mpmath.__version__ if mpmath else None,
        "llc_size": llc,
        "working_set_bytes_computed_not_measured": workload.computed_working_set_bytes,
    }


# ------------------------------------------------------------- untraced runs


def run_cli(workload: Workload, seed: int, seconds: float, tmp: Path, launcher: Launcher) -> Run:
    run = Run()
    for _ in range(workload.setup_repeats):
        parent_slowdown = probe.probe_s() / probe.REFERENCE_S
        start = time.perf_counter()
        inputs = write_cli_inputs(workload, seed, tmp)
        write_s = time.perf_counter() - start
        warm_up = launcher.run(["-m", "igf.cli", *warm_up_op(workload, inputs)],
                               tmp / "stdout", workload.op_timeout_s)
        run.setup_s.append(time.perf_counter() - start)
        # each part at the speed of the CPU that did it
        normalized = write_s / parent_slowdown + warm_up.wall_s / warm_up.slowdown
        run.setup_slowdown.append(run.setup_s[-1] / normalized)

    oracle = Oracle(inputs.probs, inputs.utils)
    began, rotations = time.perf_counter(), 0
    for op in cli_ops(workload, seed, inputs):
        inputs.out_path.unlink(missing_ok=True)
        child = launcher.run(["-m", "igf.cli", *op.argv], tmp / "stdout", workload.op_timeout_s)
        out_file = inputs.out_path.read_text() if inputs.out_path.exists() else None
        got = run.check_cli(oracle, op, child.returncode, child.stdout, out_file)
        run.record(child.wall_s, child.cpu_s, child.slowdown, got)
        run.peak_rss_mb = max(run.peak_rss_mb, child.peak_rss_mb)
        rotations += op.ends_rotation
        elapsed = time.perf_counter() - began
        if op.ends_rotation and elapsed >= seconds and rotations >= workload.min_rotations:
            break
        if elapsed > MAX_RUN_S:
            break
    return run


def fresh_igf():
    """Import the package anew, with empty caches."""
    for name in [m for m in sys.modules if m == "igf" or m.startswith("igf.")]:
        del sys.modules[name]
    return importlib.import_module("igf")


def warm_up_lib(igf, workload: Workload, seed: int) -> None:
    lib_cycle(igf, next(lib_inputs(workload, seed)))
    betas, ts = lib_fixed_sets(seed)
    for beta in betas:
        for t in ts:
            igf.beta_power_igf(beta, 1.0, t)


def lib_op(igf, oracle: Oracle, run: Run, x, slowdown: float = 1.0) -> None:
    start, cpu = time.perf_counter(), time.process_time()
    try:
        out = lib_cycle(igf, x)
    except Exception as exc:  # a failed op is counted, the run goes on
        out = None
        got = Outcome()
        got.fail(f"lib cycle raised {exc!r}")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if out is not None:
        got = oracle.check_lib(x, out)
    run.record(wall, cpu, slowdown, got)


def in_process_slowdown() -> float:
    return statistics.median(probe.probe_s() for _ in range(3)) / probe.REFERENCE_S


def run_lib(workload: Workload, seed: int, seconds: float) -> Run:
    run = Run()
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        igf = fresh_igf()
        warm_up_lib(igf, workload, seed)
        run.setup_s.append(time.perf_counter() - start)

    oracle = Oracle([], [])
    began = time.perf_counter()
    for i, x in enumerate(lib_inputs(workload, seed)):
        if i % LIB_OPS_PER_PROBE == 0:
            slowdown = in_process_slowdown()
        lib_op(igf, oracle, run, x, slowdown)
        if time.perf_counter() - began >= seconds:
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-up is mostly numpy zeta series over 1e6 terms, which the probe
    # does not follow (measured: raw figures spread less), so it stays raw
    run.setup_slowdown = [1.0] * len(run.setup_s)
    return run


# ------------------------------------------------------------- traced run


def run_traced(workload: Workload, seed: int, seconds: float, tmp: Path, launcher: Launcher):
    """Replay the op sequence in-process, plain and then traced.

    The plain pass runs whole rotations for a third of ``seconds``; the
    traced pass repeats exactly those ops.
    """
    igf = fresh_igf()
    import igf.cli  # noqa: F401  (the CLI workloads call igf.cli.main)

    zetas = (igf.closed_forms.zeta, igf.closed_forms.zeta_derivative)
    metrics = measure_import(launcher, tmp)
    run = Run()

    if workload.kind == "cli":
        inputs = write_cli_inputs(workload, seed, tmp)
        oracle = Oracle(inputs.probs, inputs.utils)
        source = cli_ops(workload, seed, inputs)

        def one(op) -> tuple[float, int, int]:
            for z in zetas:  # every CLI process starts with cold caches
                z.cache_clear()
            inputs.out_path.unlink(missing_ok=True)
            stdout = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    returncode = igf.cli.main(list(op.argv))
                except SystemExit as exc:
                    returncode = exc.code
                except Exception:  # counted as a failed op and in cli.errors
                    returncode = -1
            wall = time.perf_counter() - start
            out_file = inputs.out_path.read_text() if inputs.out_path.exists() else None
            got = run.check_cli(oracle, op, returncode, stdout.getvalue(), out_file)
            run.record(wall, 0.0, 1.0, got)
            hits = sum(z.cache_info().hits for z in zetas)
            return wall, hits, sum(z.cache_info().misses for z in zetas)
    else:
        warm_up_lib(igf, workload, seed)
        oracle = Oracle([], [])
        source = lib_inputs(workload, seed)

        def one(x) -> tuple[float, int, int]:
            before = [z.cache_info() for z in zetas]
            lib_op(igf, oracle, run, x)
            after = [z.cache_info() for z in zetas]
            hits = sum(a.hits - b.hits for a, b in zip(after, before))
            return run.wall_s[-1], hits, sum(a.misses - b.misses for a, b in zip(after, before))

    ops, plain_s = [], 0.0
    for op in source:
        ops.append(op)
        plain_s += one(op)[0]
        if getattr(op, "ends_rotation", True) and plain_s >= seconds / 3:
            break

    tracer = Tracer()
    tracer.install()
    traced_s = hits = misses = 0
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            wall, h, m = one(op)
            traced_s, hits, misses = traced_s + wall, hits + h, misses + m
    finally:
        tracer.uninstall()

    own_metrics = layer_metrics(tracer.spans, len(ops), hits, misses)
    nesting = check_nesting(tracer.spans, self_times(tracer.spans))
    for problem in nesting:
        run.outcome.fail(problem)
    metrics.update(own_metrics)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}.jsonl.gz")
    return run, {name: (metrics[name], unit, len(ops)) for name, unit in PER_LAYER_UNITS.items()}


# ------------------------------------------------------------- entry point


def _exit_on_signal(signum, frame) -> None:
    sys.exit(128 + signum)  # runs the clean-up that stops the launcher's child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], required=True,
        help='"all" runs every workload in turn, each in a process of its own',
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "igf" / "cli.py").is_file():
        print(f"error: no igf package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOADS:
            own = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(own).returncode:
                return 1
        return 0
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    launcher = Launcher()
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            if args.trace:
                run, metrics = run_traced(workload, args.seed, args.seconds, Path(tmp), launcher)
                gated = PER_LAYER_UNITS
            else:
                if workload.kind == "cli":
                    run = run_cli(workload, args.seed, args.seconds, Path(tmp), launcher)
                else:
                    run = run_lib(workload, args.seed, args.seconds)
                metrics = end_to_end(run)
                gated = END_TO_END_UNITS
    except BaseException:
        launcher.terminate()
        raise
    finally:
        launcher.close()
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("# env " + json.dumps(environment(workload)))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:36} {value!r:>24} {unit:6} n={n}")
    for failure in run.outcome.failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and run.outcome.ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in gated.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
