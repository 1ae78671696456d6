"""Quasistatic retraction mechanics of pneumatically everting soft robot bodies.

A body of given length, curvature and internal pressure either inverts
(wall material folds back into the tail at the tip, the desired behavior)
or buckles, depending on which outcome needs the lower tail force. Straight
bodies fail by axial beam buckling or by crushing of the wall; constant
curvature bodies fail by transverse buckling about the base. All quantities
are SI (m, Pa, N) and all functions here are pure.

Each exported function checks its inputs. The request-level functions (the
predictors here and in ``device``, the diagram scans and the episodes)
check each input once per request and call kernels that trust them: the
row primitives (``solve_pressure_row_unchecked``, ``length_terms_unchecked``,
``predict_row``, ``oracle_row_unchecked``), the one-length kernel
``predict_at_length_unchecked``, which evaluates a solved row at one length,
the verdict kernel ``verdict_at_unchecked``, which gives that cell's verdict
and solves the row only where the two models disagree, and the
``_unchecked`` twins of checked functions. They are public here, for the
other modules, and not exported from the package.

Each model's limit at one length is stated once: ``_straight_limit``,
min(P*A, axial buckling) with the axial force from ``_axial_force``, and
``_curved_limit``, P*A*R over the clamped moment arm. The one-length
kernels, the public force functions and the closed forms' residuals call
them. ``predict_row``'s loop keeps a copy for speed; the bisection gaps and
the oracle's row keep theirs to stay independent checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import units

# Curvatures below this are treated as exactly straight; the curved closed
# form is numerically meaningless there and the straight model applies.
KAPPA_STRAIGHT = 1e-6

# Closed-form transition residual (N) above which the bisection fallback runs,
# and the max closed-form vs bisection disagreement (m) before we declare a bug.
# The residual tolerance grows with the force scale (64 machine epsilons of
# it) once rounding alone can exceed 1e-9 N: above ~7e4 N, or ~25 MPa on
# the reference body.
_RESIDUAL_TOL_N = 1e-9
_RESIDUAL_TOL_REL = 64 * sys.float_info.epsilon
_TRANSITION_TOL_M = 1e-6


class CrossCheckError(RuntimeError):
    """Closed-form and bisection transition solvers disagree; implementation bug."""


class Verdict(Enum):
    INVERT = "invert"
    BUCKLE = "buckle"


class FailureMode(Enum):
    NONE = "none"
    AXIAL_BUCKLE = "axial_buckle"
    CRUSH = "crush"
    TRANSVERSE_BUCKLE = "transverse_buckle"


class ModelUsed(Enum):
    STRAIGHT = "straight"
    CURVED = "curved"


# The members the per-row and per-step code reads, bound once: on Python
# < 3.12 each read of an Enum class attribute costs ~150 ns.
_INVERT, _BUCKLE = Verdict.INVERT, Verdict.BUCKLE
_NONE, _CRUSH = FailureMode.NONE, FailureMode.CRUSH
_AXIAL, _TRANSVERSE = FailureMode.AXIAL_BUCKLE, FailureMode.TRANSVERSE_BUCKLE
_STRAIGHT, _CURVED = ModelUsed.STRAIGHT, ModelUsed.CURVED


@dataclass(frozen=True)
class BodySpec:
    """Geometry and material of a soft robot body.

    Defaults describe an 8.5 cm diameter, 74 um LDPE body with a 3.5 N
    tip deformation force. ``inversion_force`` is a body parameter, not a
    universal constant; it depends on material, diameter and thickness.
    """

    radius: float = 0.0425            # m
    wall_thickness: float = 74e-6     # m
    youngs_modulus: float = 300e6     # Pa
    shear_modulus: float = 210e6      # Pa
    inversion_force: float = 3.5      # N, tip deformation force offset

    def __post_init__(self) -> None:
        units.check("radius", self.radius, *units.RADIUS)
        units.check("wall_thickness", self.wall_thickness, *units.RADIUS)
        units.check("youngs_modulus", self.youngs_modulus, *units.MODULUS)
        units.check("shear_modulus", self.shear_modulus, *units.MODULUS)
        units.check("inversion_force", self.inversion_force, *units.FORCE)

    # Derived constants are computed on first use and kept in the instance
    # ``__dict__``, which no field, ``==``, ``hash`` or ``repr`` reads. Each
    # product is evaluated left to right, as the formulas would be inline, so
    # every force keeps its bits.

    @cached_property
    def cross_section_area(self) -> float:
        """Cross-sectional area pi*R^2 in m^2."""
        return math.pi * self.radius * self.radius

    @cached_property
    def _constants(self) -> tuple[float, float, float, float]:
        """(k1, k2, den_const, g_t): the pressure-free terms of the axial
        buckling force (k1*P + k2) / (den_const + (R*P + g_t)*L^2),
        k1 = E*pi^3*R^4*t, k2 = E*G*pi^3*R^3*t^2, den_const = E*pi^2*R^2*t,
        g_t = G*t.
        """
        e, g = self.youngs_modulus, self.shear_modulus
        r, t = self.radius, self.wall_thickness
        pi3 = math.pi**3
        return (
            e * pi3 * r**4 * t,
            e * g * pi3 * r**3 * t * t,
            e * math.pi**2 * r**2 * t,
            g * t,
        )


@dataclass(frozen=True)
class RobotState:
    """Operating point: centerline arc length, curvature and gauge pressure."""

    length: float               # m
    pressure: float             # Pa
    curvature: float = 0.0      # 1/m, >= 0

    def __post_init__(self) -> None:
        units.check("length", self.length, *units.LENGTH)
        units.check("pressure", self.pressure, *units.PRESSURE)
        units.check("curvature", self.curvature, *units.CURVATURE)


class BehaviorPrediction(NamedTuple):
    """Outcome of a retraction attempt at one operating point.

    ``margin == limiting_force - required_tension`` and the verdict is
    INVERT exactly when the margin is positive. ``extrapolated`` is set when
    the curved moment arm was evaluated past its validity range (kappa*L > pi)
    or the curved model had no reachable buckling point. A named tuple, since
    a phase diagram builds one per cell (neighbors with the same bits share
    one); hot paths build it by position with ``tuple.__new__`` (what
    ``_make`` does), which skips the generated ``__new__``.
    """

    verdict: Verdict
    mode: FailureMode
    required_tension: float     # N
    limiting_force: float       # N
    margin: float               # N
    model_used: ModelUsed
    extrapolated: bool = False


class PressureRow(NamedTuple):
    """The length-independent part of a prediction at one pressure.

    The model choice, the transition length and the extrapolation hint
    depend on (body, pressure, curvature, required tension) and never on
    length, so a phase-diagram row or a constant-pressure episode solves
    them once (``solve_pressure_row_unchecked``): the row evaluates
    ``predict_row`` over its lengths, the episode locates its one flip with
    ``predict_at_length_unchecked``. ``transition`` is None when no length
    inverts and inf when every length does. ``extrapolated`` is set when
    the curved model had no reachable buckling point. A ``grounded`` row
    has no finite buckling limit at any length: the tail force path is
    grounded at the tip, as when the retraction device covers the whole
    zero-tension need. Since a diagram solves one row per pressure, the
    row solver builds it by position with ``tuple.__new__``; that applies
    no defaults, so every field is given.
    """

    body: BodySpec
    pressure: float              # Pa
    curvature: float             # 1/m
    required_tension: float      # N
    model_used: ModelUsed
    transition: Optional[float]  # m
    extrapolated: bool = False
    grounded: bool = False

    @property
    def critical_length(self) -> Optional[float]:
        """The finite transition length, or None when there is none to draw."""
        transition = self.transition
        return None if transition is None or math.isinf(transition) else transition


def tail_tension_to_invert(body: BodySpec, pressure: float) -> float:
    """Tail tension needed to invert the body at the given pressure.

    Affine in pressure with slope equal to half the cross-sectional area,
    offset by the tip deformation force.
    """
    units.check("pressure", pressure, *units.PRESSURE)
    return tail_tension_to_invert_unchecked(body, pressure)


def tail_tension_to_invert_unchecked(body: BodySpec, pressure: float) -> float:
    """``tail_tension_to_invert`` for inputs already checked."""
    return 0.5 * pressure * body.cross_section_area + body.inversion_force


def crushing_force(body: BodySpec, pressure: float) -> float:
    """Axial load that collapses the wall by crushing: P*A, length independent."""
    units.check("pressure", pressure, *units.PRESSURE)
    return pressure * body.cross_section_area


def axial_buckling_force(body: BodySpec, pressure: float, length: float) -> float:
    """Tip load that buckles a straight inflated body of the given length.

    Strictly decreasing in length; tends to P*A + pi*R*G*t as length -> 0.
    Raises ValueError for length <= 0.
    """
    units.check("pressure", pressure, *units.PRESSURE)
    units.check("length", length, *units.LENGTH, lo_open=True)
    return _axial_force(body, pressure, length)


def min_inversion_pressure(body: BodySpec) -> float:
    """Pressure below which inversion is impossible at any length: 2*F_I/A."""
    return 2.0 * body.inversion_force / body.cross_section_area


def clamped_moment_arm(body: BodySpec, curvature: float, length: float) -> float:
    """Lateral moment arm of the tail tension about the base of a curved body.

    D = R + (1 - cos(L*kappa)) / kappa for kappa*L in [0, pi], and held at
    its maximum R + 2/kappa beyond, so that a triggered buckling verdict
    persists instead of oscillating. Below the straightness threshold this
    is R exactly. 1 - cos is evaluated as 2*sin^2(x/2) to stay accurate near
    zero curvature.
    """
    units.check("curvature", curvature, *units.CURVATURE, lo_open=True)
    units.check("length", length, *units.LENGTH)
    return _moment_arm_clamped(body, curvature, length)


def curved_buckling_force(
    body: BodySpec, pressure: float, curvature: float, length: float
) -> float:
    """Tail tension that transversely buckles a curved body: P*A*R / D,
    valid for kappa*L in [0, pi]."""
    units.check("pressure", pressure, *units.PRESSURE)
    units.check("curvature", curvature, *units.CURVATURE, lo_open=True)
    units.check("length", length, *units.LENGTH)
    units.check("kappa*L", curvature * length, hi=math.pi)
    return _curved_limit(body, pressure, curvature, length)


def min_buckling_moment_arm(body: BodySpec, pressure: float) -> float:
    """Smallest moment arm at which buckling wins over inversion.

    Equals R at the minimum inversion pressure and approaches 2R at high
    pressure. Requires a pressure of at least the pressure floor, where P*A
    is a normal float.
    """
    units.check("pressure", pressure, units.PRESSURE.floor, units.PRESSURE.hi)
    pa = pressure * body.cross_section_area
    return pa * body.radius / (0.5 * pa + body.inversion_force)


def wall_tension(body: BodySpec, pressure: float, device_force: float = 0.0) -> float:
    """Tension carried by the deployed wall during inversion.

    T_W = P*A/2 - F_I + F_d/2. Negative values are meaningful: the wall has
    gone slack and the body is in the crushing regime. With no device force
    the sign flips exactly at the minimum inversion pressure.
    """
    units.check("pressure", pressure, *units.PRESSURE)
    units.check("device_force", device_force, *units.FORCE)
    return (
        0.5 * pressure * body.cross_section_area
        - body.inversion_force
        + 0.5 * device_force
    )


def curved_transition_length(
    body: BodySpec, pressure: float, curvature: float
) -> Optional[float]:
    """Critical arc length of a curved body under the transverse model.

    None when no transition exists: either pressure is below the minimum
    inversion pressure (crush at zero length) or the required moment arm
    exceeds its maximum R + 2/kappa within the valid range (buckling
    unreachable). The closed form's force residual is tested on every call,
    and a bisection runs only where that test fails.
    """
    units.check("pressure", pressure, *units.PRESSURE)
    units.check("curvature", curvature, *units.CURVATURE, lo_open=True)
    required = tail_tension_to_invert_unchecked(body, pressure)
    result = _curved_transition_for(body, pressure, curvature, required)
    return None if result is None or math.isinf(result) else result


def transition_length(
    body: BodySpec, pressure: float, curvature: float = 0.0
) -> Optional[float]:
    """Critical length under whichever model the dispatcher would apply."""
    units.check("pressure", pressure, *units.PRESSURE)
    units.check("curvature", curvature, *units.CURVATURE)
    required = tail_tension_to_invert_unchecked(body, pressure)
    return solve_pressure_row_unchecked(body, pressure, curvature, required).critical_length


def predict_behavior(body: BodySpec, state: RobotState) -> BehaviorPrediction:
    """Predict whether the body inverts or buckles during retraction.

    Bodies below the straightness threshold use the straight model (axial
    buckling and crushing). Curved bodies use the transverse model unless it
    would predict a longer transition length than the straight model, in
    which case the body behaves as straight. Exact ties classify as BUCKLE.
    The state was checked when it was built, so this makes no check.
    """
    pressure = state.pressure
    required = tail_tension_to_invert_unchecked(body, pressure)
    row = solve_pressure_row_unchecked(body, pressure, state.curvature, required)
    return predict_at_length_unchecked(row, state.length)


def solve_pressure_row_unchecked(
    body: BodySpec, pressure: float, curvature: float, required_tension: Optional[float]
) -> PressureRow:
    """Solve the model dispatch once for every length at one pressure: the
    row solver of the predictors, the diagram rows, the constant-pressure
    episodes and the scheduled steps whose two models' verdicts differ
    (``verdict_at_unchecked``). This is the one place the dispatch rule is
    written.

    ``required_tension`` is ``device.device_assist``'s answer: the tail
    tension the base must supply, or None for a grounded row, which skips
    the dispatch and inverts at every length with zero required tension. A
    curved body is modeled as straight when the transverse model has no
    transition or predicts a longer one than the straight model. A closed
    form that fails its residual test is confirmed by its model's bisection
    kernel, which trusts the same inputs. Trusts its inputs: a finite
    pressure and curvature >= 0 and a finite required tension, checked by
    its caller.
    """
    if required_tension is None:
        return tuple.__new__(PressureRow, (
            body, pressure, curvature, 0.0, _grounded_model(curvature), math.inf, False, True
        ))
    model, extrapolated = _STRAIGHT, False
    transition = _straight_transition_for(body, pressure, required_tension)
    if curvature >= KAPPA_STRAIGHT:  # else below the straightness threshold
        curved = _curved_transition_for(body, pressure, curvature, required_tension)
        if curved is None:  # crush at zero length
            pass
        elif math.isinf(curved):  # curved buckling unreachable: flagged
            extrapolated = True
        elif transition is not None and (math.isinf(transition) or not curved > transition):
            model, transition = _CURVED, curved  # else curved longer than straight
    return tuple.__new__(PressureRow, (
        body, pressure, curvature, required_tension, model, transition, extrapolated, False
    ))


def length_terms_unchecked(
    body: BodySpec, curvature: float, lengths: Iterable[float]
) -> Iterator[tuple[float, bool, Optional[float]]]:
    """The pressure-free terms of each length in turn, lazily: ``(length,
    past, arm)``, where ``past`` is kappa*L > pi and ``arm`` the clamped
    moment arm, or None below the straightness threshold, where no model
    reads it.

    Every row of a phase diagram shares its lengths, so a diagram computes
    these once, after checking each length, and hands them to
    ``predict_row`` or ``oracle_row_unchecked`` for each of its rows.
    Trusts its inputs: a finite curvature and finite lengths >= 0.
    """
    pi = math.pi
    if curvature < KAPPA_STRAIGHT:
        for length in lengths:
            yield length, curvature * length > pi, None
    else:
        for length in lengths:
            yield length, curvature * length > pi, _moment_arm_clamped(body, curvature, length)


def predict_at_length_unchecked(row: PressureRow, length: float) -> BehaviorPrediction:
    """Evaluate a solved row at one finite length >= 0: the one-length
    kernel of the predictors and of the constant-pressure episodes, which
    call it at the few tips that locate the row's one flip. A scheduled
    step asks ``verdict_at_unchecked``, which gives this cell's verdict.

    The limit is the row's model's, from ``_straight_limit`` or
    ``_curved_limit``; ``predict_row`` gives the same bits at every length.
    """
    body, pressure, curvature, required, model, _, hint, grounded = row
    if grounded:
        mode, limit = _NONE, math.inf
    elif model is _STRAIGHT:
        mode, limit = _straight_limit(body, pressure, length)
    else:
        mode, limit = _TRANSVERSE, _curved_limit(body, pressure, curvature, length)
    if required < limit:
        verdict, mode = _INVERT, _NONE
    else:
        verdict = _BUCKLE
    return tuple.__new__(BehaviorPrediction, (
        verdict, mode, required, limit, limit - required, model,
        hint or curvature * length > math.pi,
    ))


def verdict_at_unchecked(
    body: BodySpec,
    pressure: float,
    curvature: float,
    required_tension: Optional[float],
    length: float,
) -> Verdict:
    """The verdict ``predict_at_length_unchecked`` gives at one finite length
    >= 0 on the row that ``solve_pressure_row_unchecked`` solves from these
    inputs, with the row solved only where its model decides the verdict:
    the kernel of the scheduled episode steps, which keep only the verdict.

    Whichever model the row solver picks, the verdict is ``required <
    limit(length)`` of that model. Below the straightness threshold the
    solver always picks the straight model. Above it the curved verdict is
    computed too, and only where the two differ is the row solved, and its
    model's verdict returned. A None ``required_tension`` is a grounded
    row, which inverts. Trusts its inputs as the row solver does.
    """
    if required_tension is None:
        return _INVERT
    straight = (
        _INVERT if required_tension < _straight_limit(body, pressure, length)[1] else _BUCKLE
    )
    if curvature < KAPPA_STRAIGHT:
        return straight
    curved = (
        _INVERT if required_tension < _curved_limit(body, pressure, curvature, length) else _BUCKLE
    )
    if curved is straight:
        return straight
    row = solve_pressure_row_unchecked(body, pressure, curvature, required_tension)
    return straight if row.model_used is _STRAIGHT else curved


def predict_row(
    row: PressureRow, terms: Iterable[tuple[float, bool, Optional[float]]]
) -> Iterator[BehaviorPrediction]:
    """Evaluate a solved row at each length in turn: the limiting force of
    the row's model there, the verdict, and the kappa*L > pi extrapolation
    flag. The rows of a phase diagram (``sweep.classify_grid``) use it.

    ``terms`` are ``length_terms_unchecked`` of the row's body and
    curvature: they carry each length's flag and clamped moment arm, so the
    rows of a diagram share that work. The row's length-independent terms
    are computed once, and the loop copies ``_straight_limit``'s and
    ``_curved_limit``'s expressions, since a call per cell would cost more
    than the cell's other work. A cell whose limit is one of the row's
    length-independent limits (P*A, the clamped-arm limit beyond
    kappa*L = pi, or the grounded inf) and whose flag matches the cell
    before it is that same cell object again, since every field then has
    the same bits.
    """
    body, pressure, _, required, model, _, hint, grounded = row
    straight = model is _STRAIGHT
    if not grounded and straight:
        pa = pressure * body.cross_section_area
        num, den_const, den_slope = _axial_terms(body, pressure)
    elif not grounded:
        par = pressure * body.cross_section_area * body.radius
        clamped = None  # the limit wherever kappa*L > pi, found when first reached
    cell = None
    for length, past, arm in terms:
        extrapolated = hint or past
        if grounded:
            mode, limit = _NONE, math.inf
        elif straight:
            mode, limit = _CRUSH, pa
            if length > 0:
                axial = num / (den_const + den_slope * length * length)
                if axial < limit:
                    mode, limit = _AXIAL, axial
        else:
            # a curved row is at or above the straightness threshold, so
            # every term carries its arm
            mode = _TRANSVERSE
            if not past:
                limit = par / arm
            else:
                if clamped is None:
                    clamped = par / arm
                limit = clamped
        if cell is not None and limit is cell[3] and extrapolated is cell[6]:
            yield cell
            continue
        if required < limit:
            verdict, mode = _INVERT, _NONE
        else:
            verdict = _BUCKLE
        cell = tuple.__new__(BehaviorPrediction, (
            verdict, mode, required, limit, limit - required, model, extrapolated
        ))
        yield cell


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection's root of ``f`` in [lo, hi]: the midpoint of its bracket once
    the ends are adjacent floats, or after 200 halvings.

    An end point where ``f`` is exactly 0 is returned as it is. Raises
    CrossCheckError when ``f`` has the same sign at both ends, since every
    caller builds its bracket to straddle a root.

    The bracket is narrowed by Illinois (modified regula falsi) steps, with
    bisection's rule for which end a point replaces: ``lo`` keeps f's
    starting sign, and a point where ``f_lo * f_x <= 0`` becomes ``hi``. A
    secant point on or past an end is moved to the float next to that end,
    inside the bracket; a NaN one, or three steps that together failed to
    halve the bracket, take the midpoint instead. Where that rule sends
    every float below one point to ``lo`` and every float above it to
    ``hi``, as it does for the transition gaps (monotone in floating point:
    IEEE +, -, * and / are, and so is the arm's sin on [0, pi/2]), both
    methods close on the same adjacent pair, so the root is bisection's bit
    for bit; on the transition gaps it takes under a third of halving's
    evaluations. Where bisection's 200 halvings may stop short of that pair
    (a bracket over 2**180 times the pair's width), or 200 steps leave the
    bracket open, bisection's own halvings run over the starting bracket,
    so the root is bisection's for every ``f``.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise CrossCheckError(
            f"bisection bracket does not straddle a root: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    start = lo, hi, f_lo
    # the secant's weights: f at each end, the kept end's halved each time
    # the other end moves twice in a row
    w_lo, w_hi = f_lo, f_hi
    moved = 0  # +1 after hi moved, -1 after lo moved
    width_1 = width_2 = width_3 = math.inf  # the bracket's width 1, 2, 3 steps ago
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # halving closes a bracket in about log2 of its width over the
            # pair's, plus a few steps for rounding; past 180 its 200
            # halvings may run out first
            if start[1] - start[0] <= (hi - lo) * 2.0**180:
                return mid
            break
        width = hi - lo
        x = mid
        if not width > 0.5 * width_3:
            secant = lo + width * (w_lo / (w_lo - w_hi))
            if lo < secant < hi:
                x = secant
            elif secant >= hi:
                x = math.nextafter(hi, lo)
            elif secant <= lo:
                x = math.nextafter(lo, hi)
        width_3, width_2, width_1 = width_2, width_1, width
        f_x = f(x)
        if f_lo * f_x <= 0:
            if moved > 0:
                w_lo *= 0.5
            hi, w_hi, moved = x, f_x, 1
        else:
            if moved < 0:
                w_hi *= 0.5
            lo, f_lo, w_lo, moved = x, f_x, f_x, -1
    # bisection itself, over the starting bracket
    lo, hi, f_lo = start
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def straight_transition_bisect(
    body: BodySpec, pressure: float, required: float
) -> Optional[float]:
    """Straight transition at a given required tension by bisection on the
    force balance, sharing no algebra with the closed form. Its kernel,
    ``_straight_bisect_for``, is the closed form's fallback and the oracle's
    solver. None: crush at zero length. inf: inverts everywhere."""
    units.check("required_tension", required, *units.TENSION)
    units.check("pressure", pressure, *units.PRESSURE)
    return _straight_bisect_for(body, pressure, required)


def _straight_bisect_for(body: BodySpec, pressure: float, required: float) -> Optional[float]:
    if required >= pressure * body.cross_section_area:
        return None
    if required <= 0:
        return math.inf

    # every length the solver tries is positive and finite, so the gap
    # evaluates the force unchecked, from the row's axial terms: its own copy
    # of ``_axial_force``, since this is the oracle's solver
    num, den_const, den_slope = _axial_terms(body, pressure)

    def gap(length: float) -> float:
        return num / (den_const + den_slope * length * length) - required

    hi = 1.0
    while gap(hi) > 0:
        hi *= 2.0
    # the smallest positive length, where the gap is P*A + pi*R*G*t - required > 0
    return bisect_root(gap, math.ulp(0.0), hi)


def curved_transition_bisect(
    body: BodySpec, pressure: float, curvature: float, required: float
) -> Optional[float]:
    """Curved transition at a given required tension by bisection on the
    moment balance over [0, pi/kappa]. Its kernel, ``_curved_bisect_for``,
    is the closed form's fallback and the oracle's solver. None and inf as
    for ``curved_transition_length``. The arm is clamped because
    kappa * (pi/kappa) may round past pi."""
    units.check("curvature", curvature, *units.CURVATURE)
    units.check("required_tension", required, *units.TENSION)
    units.check("pressure", pressure, *units.PRESSURE)
    return _curved_bisect_for(body, pressure, curvature, required)


def _curved_bisect_for(
    body: BodySpec, pressure: float, curvature: float, required: float
) -> Optional[float]:
    pa = pressure * body.cross_section_area
    if required > pa:
        return None
    if required == pa:  # the crush boundary, as for the closed form
        return 0.0
    if curvature < KAPPA_STRAIGHT:
        return math.inf
    par = pa * body.radius
    if par / _moment_arm_clamped(body, curvature, math.inf) > required:
        return math.inf

    # every length the solver tries is in [0, pi/kappa] and kappa > 0, so the
    # gap calls the check-free arm helper: its own copy of ``_curved_limit``,
    # since this is the oracle's solver
    def gap(length: float) -> float:
        return par / _moment_arm_clamped(body, curvature, length) - required

    # at the crush boundary (required == P*A) the gap at zero length is 0,
    # or rounds just below it: the transition is 0, as the closed form says
    if gap(0.0) <= 0.0:
        return 0.0
    return bisect_root(gap, 0.0, math.pi / curvature)


def oracle_row_unchecked(
    body: BodySpec,
    pressure: float,
    curvature: float,
    required: Optional[float],
    terms: Sequence[tuple[float, bool, Optional[float]]],
) -> list[BehaviorPrediction]:
    """Classify one pressure row by direct force comparison: ``oracle_scan``'s
    row, the oracle that cross-checks ``predict_row``.

    ``terms`` are ``length_terms_unchecked`` of the body and curvature, as a
    sequence, built once for all rows of a diagram. The model is dispatched
    with the bisection solvers, which share no transition algebra with the
    closed forms, and each cell compares ``required`` with the limiting
    force of that model at its length: the smaller of crushing and axial
    buckling when straight, from the row's axial terms, and the transverse
    limit P*A*R / arm when curved, from the term's arm: its own copies of
    ``_straight_limit`` and ``_curved_limit``, so that a fault in either
    shows as a disagreement. A cell carries its
    verdict, the forces and the model; its mode is NONE and its flag False.
    A cell whose limit is the same object as the previous cell's (where
    crushing binds) is that same cell object again, as in ``predict_row``.
    A None ``required`` is a grounded row, as for
    ``solve_pressure_row_unchecked``: one shared INVERT cell with an
    infinite limit. Trusts its inputs as that row solver does.
    """
    crush = pressure * body.cross_section_area
    if required is None:
        cell = BehaviorPrediction(
            _INVERT, _NONE, 0.0, math.inf, math.inf, _grounded_model(curvature)
        )
        return [cell] * len(terms)

    curved = False
    if curvature >= KAPPA_STRAIGHT:
        straight = _straight_bisect_for(body, pressure, required)
        transition = _curved_bisect_for(body, pressure, curvature, required)
        curved = not (
            transition is None
            or math.isinf(transition)
            or straight is None
            or (not math.isinf(straight) and transition > straight)
        )
    model = _CURVED if curved else _STRAIGHT
    if curved:
        par = crush * body.radius
    else:
        num, den_const, den_slope = _axial_terms(body, pressure)

    cells = []
    cell = limit_at = None
    for length, _, arm in terms:
        if curved:
            limit = par / arm
        elif length > 0:
            # min(crush, axial) as a comparison: crush itself wherever it
            # binds (or the axial force is NaN), so those cells share one
            axial = num / (den_const + den_slope * length * length)
            limit = axial if axial < crush else crush
        else:
            limit = crush
        if limit is not limit_at:
            limit_at = limit
            verdict = _INVERT if required < limit else _BUCKLE
            cell = tuple.__new__(BehaviorPrediction, (
                verdict, _NONE, required, limit, limit - required, model, False
            ))
        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# internals


def _grounded_model(curvature: float) -> ModelUsed:
    """The model a grounded row names: the straightness threshold alone."""
    return _STRAIGHT if curvature < KAPPA_STRAIGHT else _CURVED


def _axial_terms(body: BodySpec, pressure: float) -> tuple[float, float, float]:
    """(k1*P + k2, den_const, R*P + G*t): the axial buckling force at length
    L is num / (den_const + den_slope*L*L), each product left to right."""
    k1, k2, den_const, g_t = body._constants
    return k1 * pressure + k2, den_const, body.radius * pressure + g_t


def _axial_force(body: BodySpec, pressure: float, length: float) -> float:
    """The axial buckling force at a length > 0, unchecked."""
    num, den_const, den_slope = _axial_terms(body, pressure)
    return num / (den_const + den_slope * length * length)


def _straight_limit(body: BodySpec, pressure: float, length: float) -> tuple[FailureMode, float]:
    """The straight model's failure mode and limit at a length >= 0:
    min(P*A, axial force) as a comparison, so crushing wherever the axial
    force is not smaller: at zero length, at a tie, or where it is NaN."""
    crush = pressure * body.cross_section_area
    if length > 0:
        axial = _axial_force(body, pressure, length)
        if axial < crush:
            return _AXIAL, axial
    return _CRUSH, crush


def _curved_limit(body: BodySpec, pressure: float, curvature: float, length: float) -> float:
    """The curved model's limit at a length >= 0: P*A*R over the clamped arm."""
    return pressure * body.cross_section_area * body.radius / _moment_arm_clamped(
        body, curvature, length
    )


def _moment_arm_clamped(body: BodySpec, curvature: float, length: float) -> float:
    # Beyond kappa*L = pi the arm is held at its maximum R + 2/kappa so that
    # a triggered buckling verdict persists instead of oscillating.
    if curvature * length > math.pi:
        return body.radius + 2.0 / curvature
    if curvature < KAPPA_STRAIGHT:
        return body.radius
    half = 0.5 * length * curvature
    s = math.sin(half)
    one_minus_cos = 2.0 * s * s
    return body.radius + one_minus_cos / curvature


def _within_rounding(residual: float, force: float) -> bool:
    """Whether a closed form's force residual is within rounding of the force
    scale: |residual| <= max(1e-9 N, 64 machine epsilons of |force|).

    Written with comparisons, not ``abs`` and ``max`` (each builtin call
    costs more than the test itself), and equal to that form for every pair
    of floats: a NaN force gives the 1e-9 N floor, a NaN residual fails.
    """
    tol = _RESIDUAL_TOL_REL * force
    if tol < 0.0:
        tol = -tol
    if not tol > _RESIDUAL_TOL_N:
        tol = _RESIDUAL_TOL_N
    return -tol <= residual <= tol


def _confirmed(closed: float, root: Optional[float]) -> float:
    """``closed`` once the bisection ``root`` confirms it: a closed form
    whose residual fails ``_within_rounding`` passes the root of its model's
    bisection kernel here. Raises CrossCheckError where the two differ by
    more than 1e-6 m."""
    if abs(root - closed) > _TRANSITION_TOL_M:
        raise CrossCheckError(
            f"closed-form transition {closed} m disagrees with bisection {root} m"
        )
    return closed


def _straight_transition_for(
    body: BodySpec, pressure: float, required: float
) -> Optional[float]:
    """Transition length of the straight model at an arbitrary required tension.

    None: no inverting length exists (crushing binds at zero length).
    inf: no buckling length exists (inverts at every length).
    """
    if required >= pressure * body.cross_section_area:
        return None
    if required <= 0:
        return math.inf
    num, den_const, den_slope = _axial_terms(body, pressure)
    closed = math.sqrt((num / required - den_const) / den_slope)
    residual = _axial_force(body, pressure, closed) - required
    if _within_rounding(residual, required):
        return closed
    return _confirmed(closed, _straight_bisect_for(body, pressure, required))


def _curved_transition_for(
    body: BodySpec, pressure: float, curvature: float, required: float
) -> Optional[float]:
    """Transition arc length of the curved model at an arbitrary required tension.

    None: crushing binds already at zero length. At the exact crush boundary
    (required == P*A) the transition is 0, since the cell rule buckles on
    the tie at every length, at 0 Pa with no inversion force too. inf: the
    moment arm cannot reach the buckling threshold anywhere in its valid
    range (or the body is below the straightness threshold, where the
    curved limit is P*A at every length). A required tension <= 0 is below
    the curved limit at every length, so the reachability test returns inf
    for it, and every divisor below is positive.
    """
    pa = pressure * body.cross_section_area
    if required > pa:
        return None
    if required == pa:
        return 0.0
    if curvature < KAPPA_STRAIGHT:
        return math.inf
    if _curved_limit(body, pressure, curvature, math.inf) > required:
        return math.inf
    d_min = pa * body.radius / required
    cos_arg = 1.0 - curvature * (d_min - body.radius)
    # max(-1.0, min(1.0, cos_arg)) as comparisons; a NaN clamps to 1.0
    if not cos_arg < 1.0:
        cos_arg = 1.0
    elif not cos_arg > -1.0:
        cos_arg = -1.0
    closed = math.acos(cos_arg) / curvature
    residual = _curved_limit(body, pressure, curvature, closed) - required
    if _within_rounding(residual, required):
        return closed
    return _confirmed(closed, _curved_bisect_for(body, pressure, curvature, required))

