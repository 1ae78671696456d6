"""Boundary unit conversions and the numeric input contract. The library is
SI inside (m, Pa, N, rad/s); the CLI and file formats speak bench units
(kPa, cm, N*cm, RPM)."""

from __future__ import annotations

import math
from typing import NamedTuple


class Bounds(NamedTuple):
    """The range of one kind of input: [lo, hi], and no nonzero magnitude
    below ``floor``."""

    lo: float
    hi: float
    floor: float = 0.0


# The model's numeric domain: every record field and exported function
# argument lies in the range of its kind, checked where it enters. Inside
# these ranges no force, tension, length or intermediate the model forms
# overflows, and every divisor is a normal float or a zero that a branch
# handles (tests/test_domain.py evaluates every corner). The floors keep
# P*A, a motor's tip speed, a schedule segment and a given required tension
# away from the subnormal range, where a division would overflow.
LENGTH = Bounds(0.0, 1e6)                 # m: lengths, steps, sweep length axes
POSITION = Bounds(-1e6, 1e6, 1e-9)        # m: pressure schedule breakpoints
RADIUS = Bounds(1e-9, 1e6)                # m: body and roller radii, wall thickness
MODULUS = Bounds(1.0, 1e13)               # Pa
PRESSURE = Bounds(0.0, 1e30, 1e-6)        # Pa
CURVATURE = Bounds(0.0, 1e9)              # 1/m
FORCE = Bounds(0.0, 1e9, 1e-9)            # N
TENSION = Bounds(-1e45, 1e45, 1e-30)      # N: a given tail tension, signed
TORQUE = Bounds(1e-9, 1e9)                # N*m
SPEED = Bounds(0.0, 1e9, 1e-9)            # rad/s
AREA = Bounds(1e-18, 1e13)                # m^2
APERTURE_C1 = Bounds(1e-12, 1e9)          # N*m^2
FRICTION = Bounds(1e-9, 1e9)              # static friction coefficient
EFFICIENCY = Bounds(0.0, 1.0)


def check(
    name: str,
    value: float,
    lo: float = 0.0,
    hi: float = math.inf,
    floor: float = 0.0,
    lo_open: bool = False,
) -> float:
    """Return ``value`` when it is finite, in [lo, hi] (or in (lo, hi] with
    ``lo_open``) and 0 or at least ``floor`` in magnitude; otherwise raise
    ValueError naming ``name``.

    The one range rule for every numeric input; callers pass a kind's
    ``Bounds`` as ``*units.PRESSURE``. NaN and +-inf are rejected whatever
    the bounds: NaN fails every comparison, and ``value - value`` is 0 only
    for a finite value. There is no type test, so the check costs a few
    comparisons; readers of untyped data (JSON) test the type first. A
    value that cannot be compared or subtracted (a string, None) raises
    ValueError as well.
    """
    try:
        if (
            (lo < value if lo_open else lo <= value)
            and value <= hi
            and value - value == 0
            and (value == 0 or not -floor < value < floor)
        ):
            return value
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if hi < math.inf:
        rule = f" and in {'(' if lo_open else '['}{lo:g}, {hi:g}]"
    elif lo > -math.inf:
        rule = f" and {'>' if lo_open else '>='} {lo:g}"
    else:
        rule = ""
    if floor:
        rule += f", and 0 or at least {floor:g} in magnitude"
    raise ValueError(f"{name} must be finite{rule}, got {value}")


def kpa_to_pa(x: float) -> float:
    return x * 1000.0


def pa_to_kpa(x: float) -> float:
    return x / 1000.0


def cm_to_m(x: float) -> float:
    return x / 100.0


def m_to_cm(x: float) -> float:
    return x * 100.0


def um_to_m(x: float) -> float:
    return x / 1e6


def mpa_to_pa(x: float) -> float:
    return x * 1e6


def cm2_to_m2(x: float) -> float:
    return x / 1e4


def ncm_to_nm(x: float) -> float:
    return x / 100.0


def ncm2_to_nm2(x: float) -> float:
    return x / 1e4


def nm2_to_ncm2(x: float) -> float:
    return x * 1e4


def rpm_to_rad_s(x: float) -> float:
    return x * math.pi / 30.0
