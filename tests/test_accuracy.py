"""Accuracy of the closed-form transition lengths and of the limiting forces
against a 60-digit reference.

The reference uses only the stdlib ``decimal`` module. A body's float
parameters and the pressure are taken as exact, pi is a string constant, and
every step is carried at 60 significant digits, so the reference's own error
is far below one ulp of a double. A closed form's error is counted in units
in the last place (ulp) of the float it returns. The closed-form-vs-bisection
cross-check (1e-6 m) cannot tell 2 ulp of error from 1e8 ulp; these tests can.
"""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_sweep import RANDOM_BODIES, log_uniform

from vinebuckle import (
    BodySpec,
    ModelUsed,
    axial_buckling_force,
    curved_buckling_force,
    curved_transition_length,
    min_inversion_pressure,
    transition_length,
)
from vinebuckle.mechanics import PressureRow, length_terms_unchecked, predict_row

DIGITS = 60
PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863"
)

STRAIGHT_ULP = 4
CURVED_ULP = 64


def _sin(x):
    """sin by its Taylor series, the recipe of the ``decimal`` docs."""
    with localcontext() as ctx:
        ctx.prec += 2
        i, last, s, fact, num, sign = 1, 0, x, 1, x, 1
        while s != last:
            last = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def _cos(x):
    """cos by its Taylor series, the recipe of the ``decimal`` docs."""
    with localcontext() as ctx:
        ctx.prec += 2
        i, last, s, fact, num, sign = 0, 0, 1, 1, 1, 1
        while s != last:
            last = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def _asin(x):
    """asin by Newton's method on sin(y) = x, from the float ``math.asin``."""
    if x >= 1:
        return PI / 2
    y = Decimal(math.asin(float(x)))
    for _ in range(100):
        step = (_sin(y) - x) / _cos(y)
        y -= step
        if abs(step) <= abs(y) * Decimal(10) ** -(DIGITS - 2):
            break
    return y


def _terms(body, pressure):
    """(R, P*A, required tension) with exact inputs and pi."""
    r = Decimal(body.radius)
    p = Decimal(pressure)
    pa = p * PI * r * r
    return r, pa, pa / 2 + Decimal(body.inversion_force)


def _axial_terms(body, pressure):
    """(num, den_const, R*P + G*t) of the axial buckling force num /
    (den_const + (R*P + G*t)*L^2), exact to the caller's precision."""
    e, g = Decimal(body.youngs_modulus), Decimal(body.shear_modulus)
    t, p, r = Decimal(body.wall_thickness), Decimal(pressure), Decimal(body.radius)
    num = e * PI**3 * r**4 * t * p + e * g * PI**3 * r**3 * t * t
    return num, e * PI**2 * r**2 * t, r * p + g * t


def straight_reference(body, pressure):
    """sqrt((num/req - den_const) / (R*P + G*t)), where the axial buckling
    force num / (den_const + (R*P + G*t)*L^2) meets the bare tail tension."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        _, _, required = _terms(body, pressure)
        num, den_const, den_slope = _axial_terms(body, pressure)
        return ((num / required - den_const) / den_slope).sqrt()


def axial_reference(body, pressure, length):
    """The axial buckling force num / (den_const + (R*P + G*t)*L^2)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        num, den_const, den_slope = _axial_terms(body, pressure)
        length = Decimal(length)
        return num / (den_const + den_slope * length * length)


def curved_limit_reference(body, pressure, curvature, length):
    """The transverse buckling limit P*A*R / (R + (1 - cos(kappa*L))/kappa),
    with 1 - cos(x) as 2*sin(x/2)^2, for kappa*L in [0, pi]."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k = Decimal(curvature)
        r, pa, _ = _terms(body, pressure)
        s = _sin(k * Decimal(length) / 2)
        return pa * r / (r + 2 * s * s / k)


def curved_reference(body, pressure, curvature):
    """(2/kappa) * asin(sqrt(kappa*(d_min - R)/2)), d_min = P*A*R / req: the
    arc length where the moment arm R + (1 - cos(kappa*L))/kappa reaches d_min."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k = Decimal(curvature)
        r, pa, required = _terms(body, pressure)
        d_min = pa * r / required
        return 2 * _asin((k * (d_min - r) / 2).sqrt()) / k


def ulps(value, reference):
    """|value - reference| in ulps of ``value``."""
    return float(abs(Decimal(value) - reference) / Decimal(math.ulp(value)))


def straight_amplification(body, pressure):
    """How many times a relative rounding of P*A is magnified in the exact
    straight transition.

    L^2 is proportional to P*A/2 - F_I + pi*R*G*t. Near the minimum
    inversion pressure, on a body whose pi*R*G*t is small, that is a small
    difference of large terms, and one rounding of P*A moves the exact L by
    (P*A/2 + F_I + pi*R*G*t) / (2*|P*A/2 - F_I + pi*R*G*t|) times as much,
    whatever formula computes it.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r, pa, _ = _terms(body, pressure)
        f_i = Decimal(body.inversion_force)
        rgt = PI * r * Decimal(body.shear_modulus) * Decimal(body.wall_thickness)
        return float((pa / 2 + f_i + rgt) / (2 * abs(pa / 2 - f_i + rgt)))


def straight_errors(body, pressures):
    """(ulps, amplification) at each pressure with a straight transition."""
    errors = []
    for pressure in pressures:
        closed = transition_length(body, pressure)
        if closed is not None:
            error = ulps(closed, straight_reference(body, pressure))
            errors.append((error, straight_amplification(body, pressure)))
    return errors


def test_reference_functions():
    with localcontext() as ctx:
        ctx.prec = DIGITS
        tiny = Decimal(10) ** -(DIGITS - 3)
        assert abs(_sin(PI)) < tiny and abs(_cos(PI) + 1) < tiny
        assert abs(_asin(_sin(PI / 6)) - PI / 6) < tiny
        assert abs(_asin(Decimal("0.5")) - PI / 6) < tiny
        x = Decimal("0.999999999999")
        assert abs(_sin(_asin(x)) - x) < tiny
    assert float(straight_reference(BodySpec(), 5e3)) == pytest.approx(
        transition_length(BodySpec(), 5e3), rel=1e-12
    )


# pressures 10 Pa to 1 GPa, 20 a decade
LADDER = [10.0 ** (k / 20) for k in range(20, 181)]


@pytest.mark.parametrize("radius", [0.001, 0.0425, 0.3])
def test_straight_closed_form_on_a_pressure_ladder(radius):
    body = BodySpec(radius=radius)
    errors = straight_errors(body, LADDER)
    assert len(errors) >= 50  # 2.2 MPa is the 1 mm body's minimum inversion pressure
    assert max(error for error, _ in errors) <= STRAIGHT_ULP


# Over random bodies the closed form's own rounding reaches 4.6 ulp where
# the transition is well conditioned (40,000 draws), so the bound there is
# 8 ulp, times the amplification where it is not.
RANDOM_STRAIGHT_ULP = 8


@example(  # 118 ulp, amplified 66 times: 0.2% above the minimum inversion pressure
    body=BodySpec(
        radius=0.003981071705534973, wall_thickness=1e-05, youngs_modulus=8400895937.710479,
        shear_modulus=5011872.336272725, inversion_force=48.943779007661426,
    ),
    p_scale=1.0023052380778996,
)
@given(body=RANDOM_BODIES, p_scale=log_uniform(0.001, 3.0))
def test_straight_closed_form_on_random_bodies(body, p_scale):
    pressure = min_inversion_pressure(body) * p_scale
    errors = straight_errors(body, [pressure, 2.0 * pressure, 10.0 * pressure])
    assert errors
    for error, amplification in errors:
        assert error <= RANDOM_STRAIGHT_ULP * max(1.0, amplification)


# curved: the reference body, 300 pressures 25 Pa to 10 kPa
CURVED_PRESSURES = [25.0 * 400.0 ** (k / 299) for k in range(300)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="acos(1 - kappa*(d_min - R))/kappa loses bits to cancellation: 1e8 ulp "
    "near straight, hundreds of ulp at kappa = 1.389",
)
@pytest.mark.parametrize("curvature", [2e-6, 1e-4, 0.22, 0.444, 1.389])
def test_curved_closed_form(curvature):
    body = BodySpec()
    errors = []
    for pressure in CURVED_PRESSURES:
        closed = curved_transition_length(body, pressure, curvature)
        if closed is not None:
            errors.append(ulps(closed, curved_reference(body, pressure, curvature)))
    assert len(errors) > 100
    assert max(errors) <= CURVED_ULP


# The limiting forces against their references, over random bodies,
# pressures 0.1 to 1000 times the minimum inversion pressure, lengths 1 mm
# to 100 m and kappa*L in [0, pi] for the curved limit. Both are sums,
# products and quotients of positive terms, with no cancellation, so each
# rounding adds at most about one ulp: some 15 of them for the axial force
# (pi**3, R**4 and the products and sums of its terms) and 10 for the curved
# limit (P*A*R, the arm's sin and its products). On 460,000 draws the
# largest errors were 7.6 ulp (axial) and 5.7 ulp (curved), at the two
# examples below.
AXIAL_ULP = 16
CURVED_LIMIT_ULP = 12


@example(  # 7.6 ulp, axial
    body=BodySpec(
        radius=0.06184020969161003, wall_thickness=0.0009188369101174907,
        youngs_modulus=44146684.555219896, shear_modulus=131031928.74883977,
        inversion_force=1.4153635336061223,
    ),
    p_scale=392.85087578570943, length=17.44935340094086, curvature=26.195551467011416,
    fraction=0.6931975411970961,
)
@example(  # 5.7 ulp, curved
    body=BodySpec(
        radius=0.017660399547361993, wall_thickness=9.16067500329598e-05,
        youngs_modulus=4148463449.512939, shear_modulus=5838946.039097186,
        inversion_force=3.569789631552187,
    ),
    p_scale=0.5154307355403699, length=93.92021198292797, curvature=0.011147926006867103,
    fraction=0.6029815123751319,
)
@given(
    body=RANDOM_BODIES,
    p_scale=log_uniform(-1.0, 3.0),
    length=log_uniform(-3.0, 2.0),
    curvature=log_uniform(-5.0, 1.5),
    fraction=st.floats(0.0, 1.0),
)
def test_limiting_forces_on_random_bodies(body, p_scale, length, curvature, fraction):
    # the public force functions, and predict_row's own copies of the two
    # limits, which give every prediction and every diagram cell its limit
    pressure = min_inversion_pressure(body) * p_scale
    arc = min(length, math.pi / curvature) * fraction
    assume(curvature * arc <= math.pi)  # pi / kappa may round past pi
    axial = axial_reference(body, pressure, length)
    curved = curved_limit_reference(body, pressure, curvature, arc)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        straight = min(_terms(body, pressure)[1], axial)  # crushing P*A or axial

    assert ulps(axial_buckling_force(body, pressure, length), axial) <= AXIAL_ULP
    assert ulps(curved_buckling_force(body, pressure, curvature, arc), curved) <= CURVED_LIMIT_ULP
    for model, kappa, at, reference, bound in [
        (ModelUsed.STRAIGHT, 0.0, length, straight, AXIAL_ULP),
        (ModelUsed.CURVED, curvature, arc, curved, CURVED_LIMIT_ULP),
    ]:
        row = PressureRow(body, pressure, kappa, 0.0, model, None)
        (cell,) = predict_row(row, length_terms_unchecked(body, kappa, (at,)))
        assert ulps(cell.limiting_force, reference) <= bound
