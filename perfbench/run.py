#!/usr/bin/env python3
"""Benchmark of vinebuckle: three seeded workloads, end to end and per layer.

Run from the root of a checkout (nothing needs installing; this checkout's
``src/`` is imported and the run fails if ``vinebuckle`` comes from anywhere
else):

    python3 perfbench/run.py --workload cli-cold --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Workloads (one closed-loop client, single-threaded, ops in fixed-mix blocks):

- ``cli-cold``: one-shot ``python -m vinebuckle.cli ... --json`` calls, each
  in a fresh process, sent after the previous one exits. This is how a user
  asks single questions; interpreter start and import dominate each call.
- ``phase-sweep``: in-process ~10^4-cell (pressure, length) diagrams through
  classify_grid, emit csv+svg and the transition CSV; half of them also get
  the oracle cross-check. The heavy path, many lengths per pressure.
- ``episodes``: in-process retraction and growth episodes of thousands of
  steps with their CSV logs; half under a pressure schedule, where every
  step has a new pressure.

With ``--trace 0`` the run measures for ``--seconds`` (whole blocks) and
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a separate, traced run (see tracing.py). Every op's output is checked;
the last stdout line is the JSON result and the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 15
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# the workload-specific name of each generic end-to-end metric
SPECIFIC_NAMES = {
    "cli-cold": {"op_p50_s": "cli_call_p50_s", "work_per_s": "calls_per_s"},
    "phase-sweep": {"op_p50_s": "diagram_p50_s", "work_per_s": "cells_per_s"},
    "episodes": {"op_p50_s": "episode_p50_s", "work_per_s": "steps_per_s"},
}


class BenchError(Exception):
    pass


def import_library():
    """Import vinebuckle from this checkout's src/ and nowhere else."""
    package = SRC / "vinebuckle"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no vinebuckle package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vinebuckle

    found = Path(vinebuckle.__file__).resolve().parent
    if found != package.resolve():
        raise BenchError(f"vinebuckle imported from {found}, not from {package}")
    return vinebuckle


@contextlib.contextmanager
def workdir():
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _time_until_line(argv: list[str]) -> tuple[float, str]:
    """Wall time from spawn to the child's first stdout line; waits for exit."""
    t0 = time.perf_counter()
    import workloads

    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.child_env(ROOT), cwd=ROOT,
                            text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0:
        raise BenchError(f"{argv[1:]} exited {code}")
    return seconds, line.strip()


class SetupProbes:
    """Set-up of fresh workers that import vinebuckle and build the seeded
    inputs of their first block, one worker at a time between the ops of a
    run, so that they sample the host over the whole run as the op times do.
    The first spawn is untimed, so byte-compiled caches exist.

    Each worker reports the CPU seconds its main thread used until it was
    ready (``time.thread_time()``; numpy's BLAS threads spin meanwhile, and
    the wall time of a spawn varies with everything else the host runs),
    then times the reference kernel. Those seconds are scaled like an op's
    by that reference and the one timed here just before the spawn."""

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
                     workload, "--seed", str(seed)]
        self.scaled: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []
        _time_until_line(self.argv)

    def take(self) -> None:
        import workloads

        before = workloads.kernel_reference()
        seconds, line = _time_until_line(self.argv)
        used, after = map(float, line.split())
        self.scaled.append(used * 2.0 * workloads.KERNEL_REFERENCE_S / (before + after))
        self.cpu.append(used)
        self.wall.append(seconds)


def setup_probe(workload: str, seed: int) -> None:
    import_library()
    import workloads

    with workdir() as tmp:
        workloads.WORKLOADS[workload](ROOT, tmp).prepare(gen.blocks(workload, seed, 1)[0])
        used = time.thread_time()
        print(used, workloads.kernel_reference(), flush=True)


def startup_times() -> tuple[float, float]:
    """Median interpreter start (``python -c pass``) and median in-child
    duration of a fresh ``import vinebuckle``."""
    bare = [_time_until_line([sys.executable, "-c", "print()"])[0] for _ in range(STARTUP_PROBES)]
    code = ("import time; t = time.perf_counter(); import vinebuckle; "
            "print(time.perf_counter() - t)")
    imports = [float(_time_until_line([sys.executable, "-c", code])[1])
               for _ in range(STARTUP_PROBES)]
    return statistics.median(bare), statistics.median(imports)


def run_record(seed: int, vinebuckle) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
        # import_library() already failed the run unless this is the checkout's src/
        "vinebuckle_path": str(Path(vinebuckle.__file__).resolve().parent.relative_to(ROOT)),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blocks_until(blocks, seconds, step):
    """Call ``step(op, index)`` over whole blocks until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    for block in itertools.cycle(blocks):
        for op in block:
            step(op, index)
            index += 1
        if time.perf_counter() - start >= seconds:
            return


def _op_failure(counts: dict, lines: list, index: int, exc: Exception) -> None:
    """Count an op that raised as a failed op and note why."""
    counts["failed"] += 1
    lines.append(f"op {index} failed: {type(exc).__name__}: {exc}")


def measure(name: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and counts, plus the unscaled times."""
    import workloads

    setups = SetupProbes(name, seed)
    workload = workloads.WORKLOADS[name](ROOT, tmp)
    blocks = gen.blocks(name, seed)
    workload.prepare([op for b in blocks for op in b])
    # Each op time is scaled by the workload's nominal reference time over the
    # mean of the reference times measured just before and just after the op;
    # see workloads.reference_kernel.
    latencies, scaled, references = [], [], [workload.reference_seconds()]
    counts = {"attempted": 0, "failed": 0, "work": 0}
    lines = []
    start = time.perf_counter()

    def step(op, index):
        if (len(setups.scaled) < SETUP_PROBES
                and time.perf_counter() - start >= len(setups.scaled) * seconds / SETUP_PROBES):
            setups.take()
            references[-1] = workload.reference_seconds()
        counts["attempted"] += 1
        try:
            elapsed, result = workload.run(op)
        except Exception as exc:
            references.append(workload.reference_seconds())
            _op_failure(counts, lines, index, exc)
            return
        references.append(workload.reference_seconds())
        try:
            ok, work = workload.check(op, result)
        except Exception as exc:
            _op_failure(counts, lines, index, exc)
            return
        latencies.append(elapsed)
        scaled.append(elapsed * 2.0 * workload.REFERENCE_S / (references[-2] + references[-1]))
        counts["failed"] += not ok
        counts["work"] += work

    _blocks_until(blocks, seconds, step)
    while len(setups.scaled) < SETUP_PROBES:
        setups.take()
    lines.append(f"fail_ratio {counts['failed'] / counts['attempted']:.4f} ratio "
                 f"({counts['failed']}/{counts['attempted']})")
    if not latencies:
        return {}, {**counts, "lines": lines}
    if name == "cli-cold":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups.scaled),
        "op_p50_s": statistics.median(scaled),
        "work_per_s": counts["work"] / sum(scaled),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    unscaled = {
        "setup_cpu_s": statistics.median(setups.cpu),
        "setup_wall_s": statistics.median(setups.wall),
        "op_p50_s": statistics.median(latencies),
        "work_per_s": counts["work"] / sum(latencies),
    }
    named = SPECIFIC_NAMES[name]
    lines += [
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups.scaled)} spawns)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB",
        f"{named['op_p50_s']} {metrics['op_p50_s']:.6f} s (n={len(latencies)})",
        f"{named['work_per_s']} {metrics['work_per_s']:.2f} 1/s",
    ]
    if len(scaled) >= 20:
        p90 = statistics.quantiles(scaled, n=10)[-1]
        beyond = sum(1 for x in scaled if x > p90)
        if beyond >= 10:
            lines.append(f"{named['op_p50_s'].replace('p50', 'p90')} {p90:.6f} s "
                         f"(n={len(scaled)}, {beyond} beyond)")
    lines.append(f"reference median {statistics.median(references) * 1e3:.4f} ms "
                 f"(nominal {workload.REFERENCE_S * 1e3:g})")
    # set-up and op times as measured; repeat.py records their spread
    lines.append(f"unscaled {json.dumps(unscaled, sort_keys=True)}")
    return metrics, {**counts, "lines": lines}


def measure_traced(name: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    """Traced run: per-layer metrics. Each op runs in-process twice, once
    traced and once not, in alternating order, for the overhead ratio. Layers
    the workload never calls are timed on this seed's first block of CLI
    calls, run in-process and traced."""
    import tracing
    import workloads

    interpreter_s, import_s = startup_times()
    workload = workloads.WORKLOADS[name](ROOT, tmp)
    blocks = gen.blocks(name, seed)
    workload.prepare([op for b in blocks for op in b])
    tracer = tracing.Tracer()
    totals = {"untraced": 0.0, "traced": 0.0}
    counts = {"attempted": 0, "failed": 0}
    lines = []

    def traced_step(target, tr, op, index):
        if isinstance(target, workloads.CliWorkload):
            target.reference(op)
        with tr.installed(), tr.root(target.op_name, index):
            elapsed, result = target.run(op, in_process=True)
        ok, _ = target.check(op, result)
        counts["failed"] += not ok
        return elapsed

    def step(op, index):
        counts["attempted"] += 1
        try:
            if index % 2:
                untraced = workload.run(op, in_process=True)[0]
                traced = traced_step(workload, tracer, op, index)
            else:
                traced = traced_step(workload, tracer, op, index)
                untraced = workload.run(op, in_process=True)[0]
        except Exception as exc:
            _op_failure(counts, lines, index, exc)
            return
        totals["untraced"] += untraced
        totals["traced"] += traced

    _blocks_until(blocks, seconds, step)
    if not totals["untraced"]:
        return {}, {**counts, "lines": lines}
    own, entered = tracing.layer_metrics(tracer)
    probe = None
    if entered != set(tracing.GROUPS):
        probe_dir = tmp / "cli-probe"
        probe_dir.mkdir()
        cli_workload = workloads.CliWorkload(ROOT, probe_dir)
        probe_tracer = tracing.Tracer()
        ops = gen.blocks("cli-cold", seed, 1)[0]
        cli_workload.prepare(ops)
        for index, op in enumerate(ops):
            counts["attempted"] += 1
            try:
                traced_step(cli_workload, probe_tracer, op, index)
            except Exception as exc:
                _op_failure(counts, lines, index, exc)
        probe = tracing.layer_metrics(probe_tracer)[0]
    metrics, from_probe = tracing.merge(own, entered, probe)
    metrics["startup.interpreter_s"] = interpreter_s
    metrics["startup.import_s"] = import_s
    metrics["trace.overhead_ratio"] = totals["traced"] / totals["untraced"]

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{name}-seed{seed}.json")
    lines += tracer.table()
    if from_probe:
        lines.append(f"from the CLI probe (not called by {name}): {', '.join(from_probe)}")
    for key in sorted(metrics):
        lines.append(f"{key} {metrics[key]:.6g} {tracing.unit(key)}")
    return metrics, {**counts, "lines": lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool, vinebuckle) -> dict:
    import drift
    import tracing
    import workloads

    with workdir() as tmp:
        drift_dir = tmp / "drift"
        drift_dir.mkdir()
        drift_workload = workloads.WORKLOADS[name](ROOT, drift_dir)
        try:
            drifted = drift.mismatches(name, drift.outputs(drift_workload))
        except Exception as exc:
            drifted = [f"outputs not built ({type(exc).__name__}: {exc})"]
        if trace:
            metrics, info = measure_traced(name, seed, seconds, tmp)
            units = {k: tracing.unit(k) for k in metrics}
        else:
            metrics, info = measure(name, seed, seconds, tmp)
            units = END_TO_END_UNITS
    print(f"[{name}] run-record {json.dumps(run_record(seed, vinebuckle), sort_keys=True)}")
    for line in info["lines"]:
        print(f"[{name}] {line}")
    if drifted:
        print(f"[{name}] byte drift against digests.json: {', '.join(drifted)}")
    failed = info["failed"] + (1 if drifted else 0)
    return {
        "correct": failed == 0,
        "attempted": info["attempted"] + (1 if drifted else 0),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh process; their output passes through."""
    results = {}
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        print(f"[{name}] {lines[-1]}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            vinebuckle = import_library()
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  vinebuckle)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
