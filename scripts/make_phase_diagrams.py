#!/usr/bin/env python3
"""Regenerate the retraction phase diagrams for the reference robot body.

Sweeps pressure 0-10 kPa against length 0-300 cm for four curvatures
(straight plus 455, 225 and 72 cm radii), with and without the tip
retraction device, and writes one SVG and one grid/transition CSV pair per
case. Every grid is cross-checked against the direct-comparison oracle.

Usage: python scripts/make_phase_diagrams.py [--out-dir out] [--steps 40]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vinebuckle import (  # noqa: E402
    AxisRange,
    BodySpec,
    DeviceSpec,
    SweepRequest,
    Verdict,
    classify_grid,
    diagrams_agree,
    emit_diagram,
    emit_transition_csv,
    oracle_scan,
)

CASES = [
    ("straight", 0.0),
    ("r455cm", 1 / 4.55),
    ("r225cm", 1 / 2.25),
    ("r72cm", 1 / 0.72),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--steps", type=int, default=40, help="grid steps per axis")
    parser.add_argument("--efficiency", type=float, default=1.0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    body = BodySpec()
    device = DeviceSpec()

    for name, curvature in CASES:
        for tag, dev in (("bare", None), ("device", device)):
            request = SweepRequest(
                body=body,
                curvature=curvature,
                pressure_range=AxisRange(0.0, 10e3, args.steps),
                length_range=AxisRange(0.0, 3.0, args.steps),
                device=dev,
                efficiency=args.efficiency,
            )
            diagram = classify_grid(request)
            if not diagrams_agree(diagram, oracle_scan(request)):
                print(f"error: oracle mismatch for {name}/{tag}", file=sys.stderr)
                return 3
            stem = out / f"phase_{name}_{tag}"
            stem.with_suffix(".svg").write_bytes(emit_diagram(diagram, "svg"))
            stem.with_suffix(".csv").write_bytes(emit_diagram(diagram, "csv"))
            transitions = stem.parent / f"{stem.name}_transition.csv"
            transitions.write_bytes(emit_transition_csv(diagram))
            invert_verdict = Verdict.INVERT
            invert = sum(
                1 for row in diagram.grid for cell in row if cell.verdict is invert_verdict
            )
            print(
                f"{name:8s} {tag:6s}  invert {invert:4d} / {args.steps * args.steps}"
                f"  transition points {len(diagram.transition_curve):3d}  -> {stem}.svg"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
