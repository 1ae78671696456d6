#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- the generators give byte-identical inputs for a seed and different inputs
  for another seed, without reading the clock or the global random state;
- the byte-drift check passes on this checkout and names the one output in
  which a single byte was flipped;
- the metric names and units agree with BENCHMARK.json;
- the benchmark exits nonzero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time

import gen
import run


def _clock_and_global_random_disabled():
    def forbidden(*args, **kwargs):
        raise AssertionError("input generation read the clock or the global random state")

    names = [(time, n) for n in ("time", "time_ns", "perf_counter", "perf_counter_ns",
                                 "monotonic", "monotonic_ns", "process_time")]
    names += [(random, n) for n in ("random", "randint", "uniform", "choice", "shuffle",
                                    "gauss", "seed", "getrandbits", "randrange", "sample")]
    return [(module, name, getattr(module, name)) for module, name in names], forbidden


def test_generator() -> None:
    saved, forbidden = _clock_and_global_random_disabled()
    state = random.getstate()
    for module, name, _ in saved:
        setattr(module, name, forbidden)
    try:
        for name in gen.WORKLOADS:
            first = json.dumps(gen.blocks(name, 7, 2), sort_keys=True).encode()
            again = json.dumps(gen.blocks(name, 7, 2), sort_keys=True).encode()
            other = json.dumps(gen.blocks(name, 8, 2), sort_keys=True).encode()
            assert first == again, f"{name}: seed 7 gave different inputs twice"
            assert first != other, f"{name}: seeds 7 and 8 gave the same inputs"
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    assert random.getstate() == state, "input generation used the global random state"


def test_drift() -> None:
    import drift
    import workloads

    with run.workdir() as tmp:
        found = drift.outputs(workloads.EpisodeWorkload(run.ROOT, tmp))
    assert drift.mismatches("episodes", found) == [], "recorded digests do not match"
    key = sorted(found)[0]
    data = bytearray(found[key])
    data[len(data) // 2] ^= 0x01
    found[key] = bytes(data)
    assert drift.mismatches("episodes", found) == [key], "a one-byte change went unnoticed"


def test_names() -> None:
    import tracing

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS, end_to_end
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {n: u for metrics in tracing.GROUPS.values() for n, u in metrics.items()}
    traced.update({n: tracing.unit(n) for n in
                   ("startup.interpreter_s", "startup.import_s", "trace.overhead_ratio")})
    assert per_layer == traced, set(per_layer) ^ set(traced)


def test_bare_directory() -> None:
    with run.workdir() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, tmp / run.HERE.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", gen.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, "the benchmark ran without the library"
    assert '"correct"' not in proc.stdout, "the benchmark printed a result without the library"


def main() -> int:
    run.import_library()
    for test in (test_generator, test_drift, test_names, test_bare_directory):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
