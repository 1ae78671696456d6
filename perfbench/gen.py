"""Seeded inputs for the benchmark workloads.

Every input comes from ``random.Random`` instances seeded with the workload
name, the run seed and the block index, so the same seed always gives the
same inputs and nothing reads the clock or the global random state. Inputs
are plain JSON-able dicts; the workloads turn them into library objects.

A workload runs in blocks. Each block has the same fixed mix of operation
classes with seeded parameters, so a run's composition does not depend on
the seed; only the values inside each class do. Units are SI (m, Pa) for
the in-process workloads and bench units (kPa, cm) for the CLI.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
BLOCKS = 12            # blocks built per run; a longer run cycles through them

REF_RADII_CM = (455.0, 225.0, 72.0)
# Lower bounds of the bare curved transition length (m) at 3 kPa and above,
# per reference radius; curved episodes start below them so they retract.
CURVED_TRANSITION_LB_M = {455.0: 0.40, 225.0: 0.28, 72.0: 0.16}

SWEEP_P_HI_KPA = 10.0
SWEEP_L_HI_CM = 300.0

# (radius: None straight / cm / "seeded", device, oracle check). The oracle's
# cost per cell depends on the curvature, so only reference radii get the
# oracle; seeded radii would make a run's cost depend on its seed.
SWEEP_MIX = (
    (None, False, False),
    (None, True, True),
    ("seeded", False, False),
    (225.0, True, True),
    (72.0, False, True),
    ("seeded", True, False),
    (455.0, False, True),
    (72.0, True, False),
)

EPISODE_CLASSES = (
    "retract_bare_straight",
    "retract_bare_straight_schedule",
    "retract_bare_curved",
    "retract_bare_curved_schedule",
    "retract_device",
    "retract_device_schedule",
    "grow_bare",
    "grow_device_schedule",
)

CLI_CLASSES = (
    "predict_bare_straight",
    "predict_bare_curved",
    "predict_device_straight",
    "predict_device_curved",
    "transition_straight",
    "transition_curved",
    "device_info",
    "fit_inversion_fixture",
    "fit_aperture_fixture",
    "fit_inversion_generated",
    "fit_aperture_generated",
    "sweep_plain",
    "sweep_oracle_files",
    "sweep_device_oracle",
    "simulate_retract",
    "simulate_grow",
)

TENSION_FIXTURE = "tests/data/tension_sweep.csv"
APERTURE_FIXTURE = "tests/data/aperture_force.csv"


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def curvature(radius_cm: float) -> float:
    """1/m from a bend radius in cm."""
    return 100.0 / radius_cm


def _radius(rng: random.Random, kind) -> float:
    return rng.uniform(40.0, 600.0) if kind == "seeded" else kind


# ---------------------------------------------------------------------------
# phase-sweep


def sweep_block(seed: int, block: int) -> list[dict]:
    rng = block_rng("phase-sweep", seed, block)
    specs = []
    for radius, device, oracle in SWEEP_MIX:
        p_steps = rng.randint(90, 110)
        label = "straight" if radius is None else (
            radius if radius == "seeded" else f"r{radius:.0f}cm"
        )
        specs.append(
            {
                "cls": f"{label}-{'device' if device else 'bare'}{'-oracle' if oracle else ''}",
                "curvature": 0.0 if radius is None else curvature(_radius(rng, radius)),
                "p_steps": p_steps,
                "l_steps": round(1e4 / p_steps),
                "device": device,
                "efficiency": rng.uniform(0.95, 1.0) if device else 1.0,
                "oracle": oracle,
            }
        )
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# episodes


def _retract_length(rng: random.Random, length: float) -> tuple[float, float]:
    """(initial length, step) with initial/step half way between integers, so
    the step count of a full retraction is exactly ceil(initial/step)."""
    n = rng.randint(2450, 2550)
    step = length / (n + 0.5)
    return step * (n + 0.5), step


def episode(cls: str, rng: random.Random) -> dict:
    spec = {
        "mode": "grow" if cls.startswith("grow") else "retract",
        "device": "device" in cls,
        "efficiency": 1.0,
        "curvature": 0.0,
        "target_length": None,
        "pressure": None,
        "pressure_points": None,
    }
    if cls == "retract_bare_straight":
        spec["initial_length"], spec["step"] = _retract_length(rng, rng.uniform(0.8, 1.2))
        spec["pressure"] = rng.uniform(3e3, 8e3)
    elif cls in ("retract_bare_straight_schedule", "retract_bare_curved_schedule"):
        # pressure falls toward the tip's end, below the minimum inversion
        # pressure, so the body crushes part way through the retraction
        if cls.endswith("curved_schedule"):
            radius = rng.choice(REF_RADII_CM)
            spec["curvature"] = curvature(radius)
            top = rng.uniform(0.5, 0.8) * CURVED_TRANSITION_LB_M[radius]
        else:
            top = rng.uniform(1.0, 1.25)
        spec["initial_length"], spec["step"] = _retract_length(rng, top)
        spec["pressure_points"] = [
            [0.0, rng.uniform(300.0, 500.0)],
            [spec["initial_length"], rng.uniform(4e3, 6e3)],
        ]
    elif cls == "retract_bare_curved":
        radius = rng.choice(REF_RADII_CM)
        spec["curvature"] = curvature(radius)
        top = rng.uniform(0.5, 0.8) * CURVED_TRANSITION_LB_M[radius]
        spec["initial_length"], spec["step"] = _retract_length(rng, top)
        spec["pressure"] = rng.uniform(3e3, 8e3)
    elif cls == "retract_device":
        # below the zero-tension ceiling: the device inverts every length
        spec["initial_length"], spec["step"] = _retract_length(rng, rng.uniform(1.5, 3.0))
        spec["pressure"] = rng.uniform(1.5e3, 4e3)
        spec["efficiency"] = rng.uniform(0.85, 1.0)
    elif cls == "retract_device_schedule":
        # pressure rises past the ceiling as the tip comes back; the
        # saturated device leaves a residual that buckles the body
        spec["curvature"] = curvature(rng.choice(REF_RADII_CM))
        spec["initial_length"], spec["step"] = _retract_length(rng, rng.uniform(2.5, 3.0))
        spec["pressure_points"] = [
            [0.0, rng.uniform(35e3, 45e3)],
            [spec["initial_length"], rng.uniform(2e3, 4e3)],
        ]
    elif cls in ("grow_bare", "grow_device_schedule"):
        initial = rng.uniform(0.2, 0.5)
        target = rng.uniform(2.5, 3.0)
        n = rng.randint(2450, 2550)
        spec["initial_length"], spec["target_length"] = initial, target
        spec["step"] = (target - initial) / (n - 0.5)
        if cls == "grow_bare":
            spec["pressure"] = rng.uniform(3e3, 8e3)
        else:
            spec["curvature"] = curvature(rng.choice(REF_RADII_CM))
            spec["pressure_points"] = [
                [0.0, rng.uniform(3e3, 5e3)],
                [3.0, rng.uniform(20e3, 30e3)],
            ]
    else:
        raise ValueError(f"unknown episode class {cls!r}")
    spec["cls"] = cls
    return spec


def episode_block(seed: int, block: int) -> list[dict]:
    rng = block_rng("episodes", seed, block)
    specs = [episode(cls, rng) for cls in EPISODE_CLASSES]
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# cli-cold


def _tension_csv(rng: random.Random, rows: int) -> str:
    area = 3.141592653589793 * 0.0425**2
    f_i = rng.uniform(2.5, 4.5)
    lines = ["pressure_kpa,tension_n"]
    for _ in range(rows):
        p_kpa = rng.uniform(0.0, 10.0)
        tension = 0.5 * p_kpa * 1e3 * area + f_i + rng.gauss(0.0, 0.05)
        lines.append(f"{p_kpa:.4f},{max(tension, 0.0):.5f}")
    return "\n".join(lines) + "\n"


def _aperture_csv(rng: random.Random, rows: int) -> str:
    c1_ncm2, c2 = rng.uniform(4.0, 8.0), rng.uniform(2.5, 4.0)
    lines = ["area_cm2,force_n,shape"]
    for _ in range(rows):
        area = rng.uniform(1.0, 15.0)
        force = 2.0 * (c1_ncm2 / area + c2) + rng.gauss(0.0, 0.05)
        shape = "circle" if rng.random() < 0.8 else rng.choice(("rect", "device"))
        lines.append(f"{area:.4f},{max(force, 0.01):.5f},{shape}")
    return "\n".join(lines) + "\n"


def _axis(lo: float, hi: float, steps: int) -> str:
    return f"{lo!r}:{hi!r}:{steps}"


def _scenario_doc(spec: dict) -> dict:
    """Scenario JSON (bench units) for an episode spec."""
    doc = {
        "mode": spec["mode"],
        "device": spec["device"],
        "efficiency": spec["efficiency"],
        "initial_length_cm": spec["initial_length"] * 100.0,
        "kappa_per_m": spec["curvature"],
        "step_cm": spec["step"] * 100.0,
    }
    if spec["target_length"] is not None:
        doc["target_length_cm"] = spec["target_length"] * 100.0
    if spec["pressure"] is not None:
        doc["pressure_kpa"] = spec["pressure"] / 1e3
    else:
        doc["pressure_schedule"] = [[x * 100.0, p / 1e3] for x, p in spec["pressure_points"]]
    return doc


def cli_block(seed: int, block: int) -> list[dict]:
    """CLI calls of one block. Each op has ``argv`` (after ``-m vinebuckle.cli``),
    ``files`` it needs written first (name -> text) and ``out`` names it writes.
    Paths are relative to the work directory, except the repository fixtures."""
    rng = block_rng("cli-cold", seed, block)
    tag = f"b{block:02d}"
    ops = []
    for cls in CLI_CLASSES:
        op: dict = {"cls": cls, "files": {}, "out": []}
        if cls.startswith("predict"):
            kappa = curvature(_radius(rng, rng.choice(REF_RADII_CM + ("seeded",))))
            argv = [
                "predict",
                "--pressure-kpa", repr(rng.uniform(0.5, 10.0)),
                "--length-cm", repr(rng.uniform(5.0, 300.0)),
                "--kappa-per-m", repr(kappa if cls.endswith("curved") else 0.0),
            ]
            if "device" in cls:
                argv += ["--device", "--efficiency", repr(rng.uniform(0.6, 1.0))]
        elif cls.startswith("transition"):
            kappa = curvature(_radius(rng, rng.choice(REF_RADII_CM + ("seeded",))))
            argv = [
                "transition",
                "--pressure-kpa", repr(rng.uniform(0.5, 10.0)),
                "--kappa-per-m", repr(kappa if cls.endswith("curved") else 0.0),
            ]
        elif cls == "device_info":
            name = f"{tag}_config.json"
            config = {
                "body": {"radius_cm": rng.uniform(3.0, 6.0), "f_i_n": rng.uniform(2.5, 4.5)},
                "device": {
                    "torque_ncm": rng.uniform(15.0, 35.0),
                    "roller_radius_cm": rng.uniform(0.8, 1.6),
                    "rpm_max": rng.uniform(20.0, 45.0),
                    "efficiency": rng.uniform(0.7, 1.0),
                },
            }
            op["files"][name] = config
            argv = ["device", "info", "--config", name]
        elif cls == "fit_inversion_fixture":
            argv = ["fit", "inversion", "--csv", TENSION_FIXTURE]
        elif cls == "fit_aperture_fixture":
            argv = ["fit", "aperture", "--csv", APERTURE_FIXTURE]
        elif cls == "fit_inversion_generated":
            name = f"{tag}_tension.csv"
            op["files"][name] = _tension_csv(rng, rng.randint(3000, 4000))
            argv = ["fit", "inversion", "--csv", name]
        elif cls == "fit_aperture_generated":
            name = f"{tag}_aperture.csv"
            op["files"][name] = _aperture_csv(rng, rng.randint(3000, 4000))
            argv = ["fit", "aperture", "--csv", name, "--shape", "circle"]
        elif cls.startswith("sweep"):
            steps = rng.randint(20, 40) if cls == "sweep_plain" else rng.randint(15, 25)
            radius = rng.choice((None,) + REF_RADII_CM) if cls == "sweep_plain" else (
                _radius(rng, rng.choice(REF_RADII_CM + ("seeded",)))
            )
            argv = [
                "sweep",
                "--kappa-per-m", repr(0.0 if radius is None else curvature(radius)),
                "--p", _axis(0.0, SWEEP_P_HI_KPA, steps),
                "--l", _axis(0.0, SWEEP_L_HI_CM, steps),
            ]
            if cls != "sweep_plain":
                argv.append("--oracle-check")
            if cls == "sweep_device_oracle":
                argv += ["--device", "--efficiency", repr(rng.uniform(0.85, 1.0))]
                op["out"] = [f"{tag}_device.csv"]
                argv += ["--out-csv", op["out"][0]]
            elif cls == "sweep_oracle_files":
                op["out"] = [f"{tag}_grid.csv", f"{tag}_grid.svg", f"{tag}_transition.csv"]
                argv += [
                    "--out-csv", op["out"][0],
                    "--out-svg", op["out"][1],
                    "--out-transition-csv", op["out"][2],
                ]
        elif cls.startswith("simulate"):
            name = f"{tag}_{cls}.json"
            ep_cls = "retract_device" if cls == "simulate_retract" else "grow_device_schedule"
            op["files"][name] = _scenario_doc(episode(ep_cls, rng))
            op["out"] = [f"{tag}_{cls}.csv"]
            argv = ["simulate", "--scenario", name, "--out-csv", op["out"][0]]
        else:
            raise ValueError(f"unknown cli class {cls!r}")
        op["argv"] = argv + ["--json"]
        ops.append(op)
    rng.shuffle(ops)
    return ops


BLOCK_MAKERS = {
    "cli-cold": cli_block,
    "phase-sweep": sweep_block,
    "episodes": episode_block,
}
WORKLOADS = tuple(BLOCK_MAKERS)


def blocks(workload: str, seed: int, count: int = BLOCKS) -> list[list[dict]]:
    make = BLOCK_MAKERS[workload]
    return [make(seed, b) for b in range(count)]
