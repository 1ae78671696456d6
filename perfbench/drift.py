"""Byte-drift check: SHA-256 of every output of the default seed's first block.

``digests.json`` holds, per workload, one digest for each emitted grid CSV,
SVG, transition CSV, episode CSV and CLI JSON document of block 0 at
``gen.DEFAULT_SEED``. Every benchmark run recomputes them before it
measures and fails when one differs, so a change meant only to be faster
cannot move a byte unnoticed. After a deliberate format change, record
them again with ``python3 perfbench/drift.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import gen

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def outputs(workload) -> dict[str, bytes]:
    """Outputs of the default seed's block 0, keyed "<op index>:<output name>"."""
    ops = gen.blocks(workload.name, gen.DEFAULT_SEED, 1)[0]
    workload.prepare(ops)
    found = {}
    for i, op in enumerate(ops):
        for key, data in workload.drift_outputs(op).items():
            found[f"{i}:{key}"] = data
    return found


def digests(found: dict[str, bytes]) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(found.items())}


def mismatches(name: str, found: dict[str, bytes]) -> list[str]:
    """Keys whose digest differs from the recorded one, or is missing on a side."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    current = digests(found)
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def record(root: Path, workdir: Path) -> None:
    import workloads

    doc = {"seed": gen.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        doc[name] = digests(outputs(cls(root, workdir)))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/drift.py --record")
    import run

    run.import_library()
    with run.workdir() as tmp:
        record(run.ROOT, tmp)
    print(f"recorded {DIGESTS}")
