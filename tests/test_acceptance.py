"""Acceptance gate: one test per release criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every expected value is either an independent hand
computation written out here or a bench-reported headline with its stated
tolerance.
"""

import math
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from vinebuckle import (
    ApertureSample,
    ApertureShape,
    AxisRange,
    BodySpec,
    DeviceSpec,
    Scenario,
    SweepRequest,
    TensionSample,
    TerminalKind,
    Verdict,
    axial_buckling_force,
    classify_grid,
    crushing_force,
    curved_buckling_force,
    curved_transition_bisect,
    curved_transition_length,
    device_force_for_zero_tension,
    diagrams_agree,
    fit_aperture_constants,
    fit_inversion_force,
    load_measurements,
    max_device_force,
    max_zero_tension_pressure,
    min_inversion_pressure,
    oracle_scan,
    predict_behavior,
    retraction_kinematics,
    simulate_retraction,
    straight_transition_bisect,
    tail_tension_to_invert,
    tail_tension_with_device,
    transition_length,
    wall_tension,
)
from vinebuckle.calibration import filter_by_shape

BODY = BodySpec()
DEVICE = DeviceSpec()
CURVATURES = (0.0, 1 / 4.55, 1 / 2.25, 1 / 0.72)  # straight, 455, 225, 72 cm radii


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {title}")
        raise
    print(f"criterion {number:2d} PASS  {title}")


def test_criterion_1_minimum_inversion_pressure():
    with criterion(1, "minimum inversion pressure"):
        value = min_inversion_pressure(BODY)
        by_hand = 2.0 * 3.5 / (math.pi * 0.0425**2)
        assert value == pytest.approx(by_hand, rel=1e-12)
        assert value == pytest.approx(1100.0, rel=0.15)


def test_criterion_2_device_maximum_force():
    with criterion(2, "device maximum force"):
        value = max_device_force(DEVICE)
        by_hand = 2.0 * 0.245 / 0.012
        assert value == pytest.approx(by_hand, rel=1e-12)
        assert value == pytest.approx(41.0, rel=0.01)


def test_criterion_3_tip_retraction_speed():
    with criterion(3, "tip retraction speed"):
        omega = 33.0 * 2.0 * math.pi / 60.0
        tip = retraction_kinematics(DEVICE, omega).tip_speed
        assert tip == pytest.approx(omega * 0.012 / 2.0, rel=1e-12)
        assert tip * 100.0 == pytest.approx(2.1, rel=0.05)


def test_criterion_4_zero_tension_pressure_ceiling():
    with criterion(4, "zero-tension pressure ceiling"):
        ceiling = max_zero_tension_pressure(
            BODY, DEVICE, efficiency=1.0, inversion_force=BODY.inversion_force
        )
        assert ceiling == pytest.approx(6200.0, rel=0.10)


def test_criterion_5_aperture_model_consistency():
    with criterion(5, "aperture model vs bare tip force"):
        from vinebuckle import aperture_inversion_force

        force = aperture_inversion_force(DEVICE, area=BODY.cross_section_area)
        by_hand = 6.1e-4 / (math.pi * 0.0425**2) + 3.3
        assert force == pytest.approx(by_hand, rel=1e-12)
        assert force == pytest.approx(3.5, rel=0.10)


def test_criterion_6a_transition_decreases_with_curvature():
    with criterion(6, "phase diagram shape (a): curvature ordering"):
        for pressure in (1.6e3, 2e3, 5e3, 10e3):
            transitions = [transition_length(BODY, pressure, k) for k in CURVATURES]
            assert all(t is not None for t in transitions)
            assert all(a > b for a, b in zip(transitions, transitions[1:]))


def test_criterion_6b_single_flip_along_length():
    with criterion(6, "phase diagram shape (b): single invert-to-buckle flip"):
        lengths = [i * 0.01 for i in range(401)]
        for kappa in CURVATURES:
            for pressure in (1.5e3, 2e3, 4e3, 7e3, 10e3):
                verdicts = [
                    predict_behavior(
                        BODY, _state(length, pressure, kappa)
                    ).verdict
                    for length in lengths
                ]
                flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a is not b)
                assert flips == 1
                assert verdicts[0] is Verdict.INVERT
                assert verdicts[-1] is Verdict.BUCKLE


def test_criterion_6c_grid_matches_oracle_on_100_requests():
    with criterion(6, "phase diagram shape (c): oracle agreement, 100 requests"):
        rng = random.Random(20260808)
        for _ in range(100):
            p_lo = rng.uniform(0.0, 3e3)
            l_lo = rng.uniform(0.0, 0.5)
            request = SweepRequest(
                body=BODY,
                curvature=rng.choice([0.0, rng.uniform(1e-4, 2.0)]),
                pressure_range=AxisRange(p_lo, p_lo + rng.uniform(1e3, 12e3), rng.randint(2, 5)),
                length_range=AxisRange(l_lo, l_lo + rng.uniform(0.5, 3.5), rng.randint(2, 5)),
                device=DEVICE if rng.random() < 0.4 else None,
                efficiency=rng.uniform(0.2, 1.0),
            )
            assert diagrams_agree(classify_grid(request), oracle_scan(request))


def test_criterion_7_limit_consistency():
    with criterion(7, "limit consistency of the force formulas"):
        crush = crushing_force(BODY, 2e3)
        for length in (0.1, 0.8, 1.7, 3.0):
            force = curved_buckling_force(BODY, 2e3, 1e-8, length)
            assert abs(force - crush) / crush < 1e-9
        axial = axial_buckling_force(BODY, 2e3, 1.0)
        assert axial == pytest.approx(51.5, rel=1e-3)


def test_criterion_8_fit_recovery():
    with criterion(8, "calibration fit recovery, inversion fit"):
        area = BODY.cross_section_area
        exact_tension = [
            TensionSample(pressure=p, tail_tension=0.5 * p * area + 3.5)
            for p in (0.0, 2e3, 4e3, 6e3, 8e3, 10e3)
        ]
        fit = fit_inversion_force(exact_tension, area)
        assert fit.inversion_force == pytest.approx(3.5, rel=1e-9)


@pytest.mark.needs_numpy
def test_criterion_8_aperture_fit_recovery():
    with criterion(8, "calibration fit recovery, aperture fit"):
        exact_aperture = [
            ApertureSample(aperture_area=a, inversion_force=2.0 * (6.1e-4 / a + 3.3))
            for a in (1.8e-4, 3.5e-4, 8e-4, 2e-3)
        ]
        afit = fit_aperture_constants(exact_aperture)
        assert afit.c1 == pytest.approx(6.1e-4, rel=1e-9)
        assert afit.c2 == pytest.approx(3.3, rel=1e-9)

        samples = load_measurements(
            Path(__file__).parent / "data" / "aperture_force.csv", "aperture"
        )
        bench = fit_aperture_constants(filter_by_shape(samples, ApertureShape.CIRCULAR))
        assert bench.c1 == pytest.approx(6.1e-4, rel=0.10)
        assert bench.c2 == pytest.approx(3.3, rel=0.10)


def test_criterion_9_equivalences():
    with criterion(9, "wall tension, zero-tension root, transition cross-check"):
        p_min = min_inversion_pressure(BODY)
        assert wall_tension(BODY, p_min * (1.0 - 1e-9)) < 0.0
        assert wall_tension(BODY, p_min * (1.0 + 1e-9)) > 0.0
        rng = random.Random(99)
        for _ in range(40):
            pressure = rng.uniform(0.0, 15e3)
            if abs(pressure - p_min) < 1e-6:
                continue
            assert (wall_tension(BODY, pressure) > 0.0) == (pressure > p_min)

        for pressure in (0.0, 1.4e3, 2e3, 6.2e3, 12e3):
            root = device_force_for_zero_tension(BODY, DEVICE, pressure)
            assert tail_tension_with_device(BODY, DEVICE, pressure, root) == 0.0

        rng = random.Random(4242)
        for _ in range(20):
            pressure = rng.uniform(1.3e3, 15e3)
            kappa = rng.uniform(0.05, 2.0)
            required = tail_tension_to_invert(BODY, pressure)
            straight = transition_length(BODY, pressure)
            straight_ref = straight_transition_bisect(BODY, pressure, required)
            assert abs(straight - straight_ref) <= 1e-6
            curved = curved_transition_length(BODY, pressure, kappa)
            curved_ref = curved_transition_bisect(BODY, pressure, kappa, required)
            assert abs(curved - curved_ref) <= 1e-6


def test_criterion_10_simulator_episodes():
    with criterion(10, "simulator terminal events and device monotonicity"):
        short = simulate_retraction(Scenario(body=BODY, initial_length=1.0, pressure=2e3))
        assert short.terminal.kind is TerminalKind.FULLY_RETRACTED

        long = simulate_retraction(Scenario(body=BODY, initial_length=3.0, pressure=2e3))
        assert long.terminal.kind is TerminalKind.BUCKLED
        assert long.terminal.length == 3.0

        rescued = simulate_retraction(
            Scenario(body=BODY, initial_length=3.0, pressure=2e3, device=DEVICE)
        )
        assert rescued.terminal.kind is TerminalKind.FULLY_RETRACTED

        rng = random.Random(31415)
        for _ in range(50):
            base = dict(
                body=BODY,
                initial_length=rng.uniform(0.05, 4.0),
                pressure=rng.uniform(0.2e3, 12e3),
                curvature=rng.choice([0.0, rng.uniform(0.05, 1.5)]),
                step=rng.uniform(0.01, 0.05),
            )
            bare = simulate_retraction(Scenario(**base))
            aided = simulate_retraction(
                Scenario(device=DEVICE, efficiency=rng.uniform(0.1, 1.0), **base)
            )
            if bare.terminal.kind is TerminalKind.FULLY_RETRACTED:
                assert aided.terminal.kind is TerminalKind.FULLY_RETRACTED


def _state(length, pressure, curvature):
    from vinebuckle import RobotState

    return RobotState(length=length, pressure=pressure, curvature=curvature)
