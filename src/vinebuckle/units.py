"""Boundary unit conversions and the numeric input contract. The library is
SI inside (m, Pa, N, rad/s); the CLI and file formats speak bench units
(kPa, cm, N*cm, RPM)."""

from __future__ import annotations

import math


def check(
    name: str, value: float, lo: float = 0.0, hi: float = math.inf, lo_open: bool = False
) -> float:
    """Return ``value`` when it is finite and in [lo, hi], or in (lo, hi]
    with ``lo_open``; otherwise raise ValueError naming ``name``.

    The one range rule for every numeric input. NaN and +-inf are rejected
    whatever the bounds: NaN fails every comparison, and ``value - value``
    is 0 only for a finite value. There is no type test, so the check costs
    about one chained comparison on per-cell and per-step paths; readers of
    untyped data (JSON) test the type first. A value that cannot be compared
    or subtracted (a string, None) raises ValueError as well.
    """
    try:
        if (lo < value if lo_open else lo <= value) and value <= hi and value - value == 0:
            return value
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if hi < math.inf:
        rule = f" and in {'(' if lo_open else '['}{lo:g}, {hi:g}]"
    elif lo > -math.inf:
        rule = f" and {'>' if lo_open else '>='} {lo:g}"
    else:
        rule = ""
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
