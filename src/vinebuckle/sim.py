"""Quasistatic retraction and growth episodes.

Retraction is growth run backwards: the tip moves along the same body and
each position gets the same independent static invert/buckle verdict, so
both directions share one stepping loop. No dynamic state carries over
beyond position, elapsed time and tail slack. Buckling ends a retraction,
since the post-buckling shape is outside the model; growth logs every
length and reports the first one that buckles. Every step keeps only its
verdict, so every episode asks the verdict kernel
``mechanics.verdict_at_unchecked``. Under one constant pressure the
verdicts along increasing length flip at most once, from INVERT to BUCKLE,
so such an episode locates that flip instead of evaluating every tip: a
retraction reads its first tip, a growth bisects its tips.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from . import units
from .device import (
    DEFAULT_EFFICIENCY,
    DeviceSpec,
    device_assist_unchecked,
    retraction_kinematics,
)
from .mechanics import BodySpec, Verdict, verdict_at_unchecked

# Most steps one episode may take, ceil(span / step), so that no scenario
# can run for hours: the retraction span is initial_length, the growth span
# target_length - initial_length.
MAX_EPISODE_STEPS = 10**6


class TerminalKind(Enum):
    FULLY_RETRACTED = "fully_retracted"
    BUCKLED = "buckled"
    STALLED = "stalled"


@dataclass(frozen=True)
class TerminalEvent:
    kind: TerminalKind
    length: Optional[float] = None  # m, set for BUCKLED


@dataclass(frozen=True)
class Scenario:
    """One episode: body, operating schedule and optional device.

    Pressure is either a constant (``pressure``) or piecewise linear in tip
    position (``pressure_points`` as (tip m, Pa) breakpoints). A tip on a
    breakpoint uses the segment that ends there, and the interpolant is
    held within that segment's end pressures. A tip outside the span, or a
    NaN tip, raises ValueError. The segments are computed once per
    scenario, on first use. ``target_length`` is only used by growth
    episodes. ``motor_speed`` defaults to the device maximum. Neither span
    may take more than ``MAX_EPISODE_STEPS`` steps.
    """

    body: BodySpec
    initial_length: float                 # m
    pressure: Optional[float] = None      # Pa
    pressure_points: Optional[tuple[tuple[float, float], ...]] = None
    curvature: float = 0.0                # 1/m
    device: Optional[DeviceSpec] = None
    efficiency: float = DEFAULT_EFFICIENCY
    step: float = 0.01                    # m, finer than any transition feature
    motor_speed: Optional[float] = None   # rad/s
    base_takeup: bool = True
    target_length: Optional[float] = None  # m, growth episodes

    def __post_init__(self) -> None:
        if (self.pressure is None) == (self.pressure_points is None):
            raise ValueError("give exactly one of pressure or pressure_points")
        units.check("initial_length", self.initial_length, *units.LENGTH)
        units.check("step", self.step, *units.LENGTH, lo_open=True)
        units.check("curvature", self.curvature, *units.CURVATURE)
        units.check("efficiency", self.efficiency, *units.EFFICIENCY)
        for name, bounds in (
            ("pressure", units.PRESSURE),
            ("target_length", units.LENGTH),
            ("motor_speed", units.SPEED),
        ):
            value = getattr(self, name)
            if value is not None:
                units.check(name, value, *bounds)
        if self.pressure_points is not None:
            points = self.pressure_points
            if len(points) < 2:
                raise ValueError("pressure_points needs at least two breakpoints")
            for position, pressure in points:
                units.check("pressure_points position", position, *units.POSITION)
                units.check("pressure_points pressure", pressure, *units.PRESSURE)
            positions = [p for p, _ in points]
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise ValueError("pressure_points positions must be strictly increasing")
        span = self.initial_length
        if self.target_length is not None:
            span = max(span, self.target_length - self.initial_length)
        if span / self.step > MAX_EPISODE_STEPS:
            raise ValueError(
                f"episode of {span} m in steps of {self.step} m exceeds "
                f"{MAX_EPISODE_STEPS} steps"
            )

    def pressure_at(self, tip: float) -> float:
        if self.pressure is not None:
            return self.pressure
        first, ends, segments = self._segments
        if not first <= tip <= ends[-1]:  # NaN fails both comparisons
            points = self.pressure_points
            raise ValueError(
                f"pressure schedule covers tip positions "
                f"[{points[0][0]}, {points[-1][0]}] m, asked for {tip}"
            )
        # the first segment whose end is at or past the tip
        x0, p0, rise, run, lo, hi = segments[bisect_left(ends, tip)]
        # Rounding may carry the interpolant just past an end (below 0 when
        # p1 == 0); it is held within [lo, hi]: min(max(p, lo), hi) as
        # comparisons, which returns the same object for every float.
        p = p0 + rise * (tip - x0) / run
        return lo if lo > p else hi if hi < p else p

    # Kept in the instance ``__dict__``, which no field, ``==``, ``hash`` or
    # ``repr`` reads, like ``BodySpec._constants``.
    @cached_property
    def _segments(self) -> tuple[float, list[float], list[tuple[float, ...]]]:
        """(first position, segment end positions, segments): each segment is
        (x0, p0, p1 - p0, x1 - x0, min(p0, p1), max(p0, p1)) between the
        breakpoints (x0, p0) and (x1, p1)."""
        points = self.pressure_points
        assert points is not None
        pairs = list(zip(points, points[1:]))
        return (
            points[0][0],
            [x1 for _, (x1, _) in pairs],
            [(x0, p0, p1 - p0, x1 - x0, min(p0, p1), max(p0, p1))
             for (x0, p0), (x1, p1) in pairs],
        )


class StepRecord(NamedTuple):
    """One episode step. A named tuple, since an episode builds one per
    step; the stepping loop builds it by position with ``tuple.__new__``
    (what ``_make`` does), which skips the generated ``__new__``."""

    index: int
    tip_position: float        # m
    pressure: float            # Pa
    required_tension: float    # N
    device_force: float        # N, 0 without a device
    verdict: Verdict
    time: float                # s; nan without device kinematics
    slack: float               # m of loose tail, 0 when base take-up runs


@dataclass(frozen=True)
class EpisodeLog:
    steps: tuple[StepRecord, ...]
    terminal: TerminalEvent
    base_takeup_speed: float = 0.0   # m/s, matched base spool speed


def simulate_retraction(scenario: Scenario) -> EpisodeLog:
    """Step the tip from initial_length toward zero, stopping at first buckle.

    With a device, elapsed time follows the roller kinematics and slack
    accumulates at twice the retracted length unless base take-up runs.
    A device commanded at zero motor speed stalls the episode.
    """
    start, step = scenario.initial_length, scenario.step

    def tips():
        k = 0
        while (tip := start - k * step) > 0.0:
            yield tip
            k += 1

    return _episode(scenario, tips(), retracting=True)


def simulate_growth(scenario: Scenario) -> EpisodeLog:
    """Grow from initial_length to target_length, logging the retraction
    verdict that would hold at each length (the retractability envelope).

    Growth itself is unconditionally stable here; the terminal event reports
    the envelope: BUCKLED at the first length that could no longer retract,
    FULLY_RETRACTED when every grown length stays retractable. Raises
    ValueError without a target_length beyond initial_length.
    """
    if scenario.target_length is None:
        raise ValueError("growth scenario needs target_length")
    start, step, target = scenario.initial_length, scenario.step, scenario.target_length
    if target <= start:
        raise ValueError(
            f"nothing to grow: target_length {target} m is not beyond "
            f"initial_length {start} m"
        )

    def tips():
        k = 1
        while (tip := start + k * step) < target:
            yield tip
            k += 1
        yield target

    return _episode(scenario, tips(), retracting=False)


def emit_episode_csv(log: EpisodeLog) -> bytes:
    # A column is formatted again only when its step holds a different object
    # than the step above: a constant-pressure episode repeats one pressure,
    # required tension and device force object on every step, and a bare
    # episode one NaN time. Identity, not equality, so -0.0 after 0.0 and
    # each NaN stay exact. A saturated device returns its available force as
    # a new float on every step, so the device column also keeps its text
    # for an equal nonzero force: equal nonzero floats have the same bits.
    lines = ["step,tip_cm,pressure_kpa,required_n,device_n,verdict,time_s"]
    m_to_cm, pa_to_kpa = units.m_to_cm, units.pa_to_kpa
    pressure_at = required_at = device_at = verdict_at = time_at = object()
    for index, tip, pressure, required, device_force, verdict, time, _ in log.steps:
        if pressure is not pressure_at:
            pressure_at, kpa = pressure, f"{pa_to_kpa(pressure)!r}"
        if required is not required_at:
            required_at, required_text = required, f"{required!r}"
        if device_force is not device_at and (device_force != device_at or not device_force):
            device_at, device_text = device_force, f"{device_force!r}"
        if verdict is not verdict_at:
            verdict_at, verdict_text = verdict, verdict.value
        if time is not time_at:
            time_at, time_text = time, f"{time!r}"
        lines.append(
            f"{index},{m_to_cm(tip)!r},{kpa},{required_text},{device_text},"
            f"{verdict_text},{time_text}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# internals


def _episode(scenario: Scenario, tips: Iterator[float], retracting: bool) -> EpisodeLog:
    """Record the verdict at each tip position and decide the terminal event.

    Travel is measured from initial_length either way. A retraction ends at
    its first buckle, or after its first step when the device stalls at
    zero motor speed; only a retraction pays out tail slack. The tips are
    generated lazily, so a retraction generates no tip past its first
    buckle. Each step keeps only the verdict at its one tip, so the steps
    ask the verdict kernel ``verdict_at_unchecked``, which solves the row
    of the step's pressure only where the straight and curved verdicts
    differ at that tip. The step's required tension is the row's: the
    device's answer, or 0.0 for a grounded row. Under a pressure schedule
    each step has its own pressure and its own kernel call.

    A constant-pressure episode finds its one flip with the same kernel
    instead of calling it at every tip. Each model's verdict is ``required
    < limit(tip)``, with the limit from ``mechanics._straight_limit`` or
    ``_curved_limit``, and neither limit rises with length in floating
    point: the axial force's terms are non-negative, and the clamped arm
    grows with length, since its sin is monotone on [0, pi/2] (as
    ``bisect_root`` relies on) and it is held at its maximum past kappa*L =
    pi. So each model's verdicts run INVERT, then BUCKLE, along increasing
    length, and so do the kernel's. A retraction's tips shorten from
    initial_length, its first tip: either that tip buckles, or every tip
    inverts. A growth's tips lengthen and are all logged, so it keeps them
    and bisects them for the first that buckles, in ceil(log2(n + 1))
    kernel calls for n tips. Each step then carries the verdict its index
    gives and the one required tension object: the bits that calling the
    kernel at every tip gives. The row is solved only at a tip the search
    reads where the two models differ. Where they agree at every tip it
    reads, they agree at every tip: the search reads the last tip that
    inverts and the first that buckles, and each model flips only once.

    The scenario checked its inputs, every tip lies within its checked
    lengths, and a scheduled step's pressure lies between two checked
    breakpoint pressures, so the steps call the unchecked kernels.
    """
    body, device, curvature, efficiency = (
        scenario.body, scenario.device, scenario.curvature, scenario.efficiency
    )
    tip_speed, takeup_speed = math.nan, 0.0
    if device is not None:
        speed = scenario.motor_speed
        kin = retraction_kinematics(device, device.motor_speed_max if speed is None else speed)
        tip_speed, takeup_speed = kin.tip_speed, kin.base_takeup_speed
    stalls = retracting and device is not None and tip_speed == 0.0
    pays_out = retracting and device is not None and not scenario.base_takeup
    start = scenario.initial_length
    invert, buckle = Verdict.INVERT, Verdict.BUCKLE
    pressure_at, verdict_at = scenario.pressure_at, verdict_at_unchecked
    scheduled = scenario.pressure is None
    if not scheduled:
        pressure = scenario.pressure
        force, required = device_assist_unchecked(body, device, pressure, efficiency)
        # the index of the first tip that buckles: -1 when every tip of a
        # retraction inverts, len(tips) when every tip of a growth does
        if retracting:
            flip = 0 if verdict_at(body, pressure, curvature, required, start) is buckle else -1
        else:
            tips = list(tips)
            flip = bisect_left(
                tips, True,
                key=lambda tip: verdict_at(body, pressure, curvature, required, tip) is buckle,
            )
    records: list[StepRecord] = []
    append, build = records.append, tuple.__new__
    retracted, buckled, stalled = (
        TerminalKind.FULLY_RETRACTED, TerminalKind.BUCKLED, TerminalKind.STALLED
    )
    terminal = TerminalEvent(retracted)
    verdict = invert
    for index, tip in enumerate(tips):
        if scheduled:
            pressure = pressure_at(tip)
            force, required = device_assist_unchecked(body, device, pressure, efficiency)
            verdict = verdict_at(body, pressure, curvature, required, tip)
        elif index == flip:
            verdict = buckle
        if required is None:  # grounded: the row's zero required tension
            required = 0.0
        travelled = abs(tip - start)
        if device is None:
            elapsed = math.nan
        else:
            elapsed = travelled / tip_speed if tip_speed > 0 else 0.0
        slack = 2.0 * travelled if pays_out else 0.0
        append(build(StepRecord, (
            index, tip, pressure, required, force, verdict, elapsed, slack,
        )))
        if verdict is buckle:
            if terminal.kind is retracted:
                terminal = TerminalEvent(buckled, length=tip)
            if retracting:
                break
        if stalls:
            terminal = TerminalEvent(stalled)
            break
    return EpisodeLog(steps=tuple(records), terminal=terminal, base_takeup_speed=takeup_speed)
