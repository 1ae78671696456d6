"""Phase diagrams over (pressure, length) at fixed curvature.

``classify_grid`` solves the model dispatch once per pressure row, runs the
predictor over the row's cell centers and takes the invert/buckle
transition curve from the rows' closed-form solutions. ``oracle_scan``
classifies the same grid by direct force comparison: it takes each row's
required tension from ``device.device_assist_unchecked`` (bare, saturated
or grounded) and hands it to ``mechanics.oracle_row_unchecked``, which
dispatches with the bisection solvers (the closed forms' fallback, sharing
no transition algebra with them); the two diagrams must agree cell for cell
in verdict and model. The request is checked when it is built, its cell
centers included, so both scans call the unchecked kernels. Diagrams
serialize to CSV and to a deterministic standalone SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import units
from .device import DEFAULT_EFFICIENCY, DeviceSpec, device_assist_unchecked
from .mechanics import (
    BehaviorPrediction,
    BodySpec,
    Verdict,
    length_terms_unchecked,
    oracle_row_unchecked,
    predict_row,
    solve_pressure_row_unchecked,
)
from .version import __version__

# Most cells one diagram may hold, pressure steps x length steps, so that no
# request can exhaust memory building its cell centers and grid.
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class AxisRange:
    """Half-open sweep axis: ``steps`` cells between lo and hi, SI units."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        units.check("axis lo", self.lo, lo=-math.inf)
        units.check("axis hi", self.hi, lo=self.lo, lo_open=True)
        units.check("axis steps", self.steps, lo=1)
        if not isinstance(self.steps, int):
            raise ValueError(f"axis steps must be an integer, got {self.steps!r}")

    def centers(self) -> list[float]:
        width = (self.hi - self.lo) / self.steps
        return [self.lo + (i + 0.5) * width for i in range(self.steps)]


@dataclass(frozen=True)
class SweepRequest:
    body: BodySpec
    curvature: float
    pressure_range: AxisRange   # Pa
    length_range: AxisRange     # m
    device: Optional[DeviceSpec] = None
    efficiency: float = DEFAULT_EFFICIENCY

    def __post_init__(self) -> None:
        units.check("curvature", self.curvature, *units.CURVATURE)
        units.check("efficiency", self.efficiency, *units.EFFICIENCY)
        cells = self.pressure_range.steps * self.length_range.steps
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"grid of {cells} cells exceeds {MAX_GRID_CELLS} cells")
        # an axis' cell centers ascend, so its first and last bound the rest
        for name, axis, bounds in (
            ("length", self.length_range, units.LENGTH),
            ("pressure", self.pressure_range, units.PRESSURE),
        ):
            centers = axis.centers()
            units.check(name, centers[0], *bounds)
            units.check(name, centers[-1], *bounds)


@dataclass(frozen=True)
class PhaseDiagram:
    """Grid of predictions plus the transition curve, row-major in pressure."""

    pressures: list[float]                      # Pa, cell centers
    lengths: list[float]                        # m, cell centers
    grid: list[list[BehaviorPrediction]]        # grid[i][j] at (pressures[i], lengths[j])
    transition_curve: list[tuple[float, float]]  # (Pa, m), pressures with a transition
    metadata: dict = field(default_factory=dict)


def classify_grid(request: SweepRequest) -> PhaseDiagram:
    """Classify every cell center and trace the modeled transition curve.

    Each length's flag and moment arm are computed once for the whole
    grid; the dispatch and the transition length are solved once per
    pressure row; each cell then only evaluates its length-dependent limit,
    and a cell equal in every bit to the one before it is that same object.
    """
    body, curvature, device, efficiency = (
        request.body, request.curvature, request.device, request.efficiency
    )
    pressures, lengths, terms = _axes(request)
    grid = []
    curve = []
    for pressure in pressures:
        _, required = device_assist_unchecked(body, device, pressure, efficiency)
        row = solve_pressure_row_unchecked(body, pressure, curvature, required)
        grid.append(list(predict_row(row, terms)))
        critical = row.critical_length
        if critical is not None:
            curve.append((pressure, critical))

    return PhaseDiagram(
        pressures=pressures,
        lengths=lengths,
        grid=grid,
        transition_curve=curve,
        metadata=_metadata(request),
    )


def oracle_scan(request: SweepRequest) -> PhaseDiagram:
    """Classify the grid by direct force comparison with bisection dispatch.

    Shares the force formulas with the predictor but none of the closed-form
    transition algebra; used to cross-check ``classify_grid``. The returned
    diagram carries verdict-bearing predictions and an empty transition curve.
    Each row's required tension is ``device_assist``'s, as for
    ``classify_grid``; where the device covers the zero-tension need,
    ``oracle_row_unchecked`` makes the row invert at every length with an
    infinite limit. The lengths' terms are built once, as for
    ``classify_grid``.
    """
    body, curvature, device, efficiency = (
        request.body, request.curvature, request.device, request.efficiency
    )
    pressures, lengths, terms = _axes(request)
    grid = []
    for pressure in pressures:
        _, required = device_assist_unchecked(body, device, pressure, efficiency)
        grid.append(oracle_row_unchecked(body, pressure, curvature, required, terms))
    return PhaseDiagram(
        pressures=pressures,
        lengths=lengths,
        grid=grid,
        transition_curve=[],
        metadata=_metadata(request),
    )


def diagrams_agree(a: PhaseDiagram, b: PhaseDiagram) -> bool:
    """True when two diagrams carry identical verdicts and models cell for
    cell."""
    if len(a.grid) != len(b.grid):
        return False
    for row_a, row_b in zip(a.grid, b.grid):
        if len(row_a) != len(row_b):
            return False
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a.verdict is not cell_b.verdict or cell_a.model_used is not cell_b.model_used:
                return False
    return True


def emit_diagram(diagram: PhaseDiagram, format: str) -> bytes:
    """Serialize a diagram; ``format`` is "csv" or "svg". Deterministic bytes."""
    if format == "csv":
        return _emit_csv(diagram)
    if format == "svg":
        return _emit_svg(diagram)
    raise ValueError(f"unknown format {format!r}, expected csv or svg")


def emit_transition_csv(diagram: PhaseDiagram) -> bytes:
    lines = ["pressure_kpa,critical_length_cm"]
    for pressure, length in diagram.transition_curve:
        lines.append(f"{units.pa_to_kpa(pressure)!r},{units.m_to_cm(length)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# internals


def _axes(request: SweepRequest) -> tuple[list[float], list[float], tuple]:
    """The cell centers of both axes, and the length terms of the length
    axis."""
    pressures = request.pressure_range.centers()
    lengths = request.length_range.centers()
    terms = tuple(length_terms_unchecked(request.body, request.curvature, lengths))
    return pressures, lengths, terms


def _metadata(request: SweepRequest) -> dict:
    return {
        "kappa_per_m": request.curvature,
        "pressure_kpa": [
            units.pa_to_kpa(request.pressure_range.lo),
            units.pa_to_kpa(request.pressure_range.hi),
            request.pressure_range.steps,
        ],
        "length_cm": [
            units.m_to_cm(request.length_range.lo),
            units.m_to_cm(request.length_range.hi),
            request.length_range.steps,
        ],
        "device": request.device is not None,
        "efficiency": request.efficiency,
        "model_version": __version__,
    }


def _emit_csv(diagram: PhaseDiagram) -> bytes:
    # Every emitted force is finite or +inf, and repr(math.inf) is "inf".
    # A cell's seven columns are formatted again only when the cell is a
    # different object than the one before it (a row repeats one object
    # wherever its limit does not change with length). Within a new cell,
    # the columns whose cells share objects (a row's one required tension
    # object, and the enum members) are formatted again only when the
    # object differs from the cell above. Identity, not equality, so -0.0
    # after 0.0 and each NaN stay exact.
    lines = [
        "pressure_kpa,length_cm,verdict,mode,required_n,limit_n,margin_n,model,extrapolated"
    ]
    lengths_cm = [repr(units.m_to_cm(length)) for length in diagram.lengths]
    cell_at = verdict_at = mode_at = required_at = model_at = object()
    for pressure, row in zip(diagram.pressures, diagram.grid):
        kpa = repr(units.pa_to_kpa(pressure))
        for cm, cell in zip(lengths_cm, row):
            if cell is not cell_at:
                cell_at = cell
                verdict, mode, required, limit, margin, model, extrapolated = cell
                if verdict is not verdict_at:
                    verdict_at, verdict_text = verdict, verdict.value
                if mode is not mode_at:
                    mode_at, mode_text = mode, mode.value
                if required is not required_at:
                    required_at, required_text = required, f"{required!r}"
                if model is not model_at:
                    model_at, model_text = model, model.value
                cell_text = (
                    f"{verdict_text},{mode_text},{required_text},{limit!r},{margin!r},"
                    f"{model_text},{'true' if extrapolated else 'false'}"
                )
            lines.append(f"{kpa},{cm},{cell_text}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_SVG_W, _SVG_H = 720.0, 540.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 24.0, 58.0


def _emit_svg(diagram: PhaseDiagram) -> bytes:
    meta = diagram.metadata
    p_lo, p_hi = meta["pressure_kpa"][0], meta["pressure_kpa"][1]
    l_lo, l_hi = meta["length_cm"][0], meta["length_cm"][1]

    def sx(p_kpa: float) -> float:
        frac = (p_kpa - p_lo) / (p_hi - p_lo)
        return _MARGIN_L + frac * (_SVG_W - _MARGIN_L - _MARGIN_R)

    def sy(l_cm: float) -> float:
        frac = (l_cm - l_lo) / (l_hi - l_lo)
        return _SVG_H - _MARGIN_B - frac * (_SVG_H - _MARGIN_T - _MARGIN_B)

    def f(value: float) -> str:
        return f"{value:.2f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:g}" '
        f'height="{_SVG_H:g}" viewBox="0 0 {_SVG_W:g} {_SVG_H:g}">',
        f'<rect x="0" y="0" width="{_SVG_W:g}" height="{_SVG_H:g}" fill="white"/>',
    ]

    # axes with 6 ticks per side
    x0, y0 = _MARGIN_L, _SVG_H - _MARGIN_B
    x1, y1 = _SVG_W - _MARGIN_R, _MARGIN_T
    parts.append(
        f'<line x1="{f(x0)}" y1="{f(y0)}" x2="{f(x1)}" y2="{f(y0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{f(x0)}" y1="{f(y0)}" x2="{f(x0)}" y2="{f(y1)}" stroke="black"/>'
    )
    for k in range(6):
        p_tick = p_lo + k * (p_hi - p_lo) / 5.0
        x = sx(p_tick)
        parts.append(
            f'<line x1="{f(x)}" y1="{f(y0)}" x2="{f(x)}" y2="{f(y0 + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{f(x)}" y="{f(y0 + 20)}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{p_tick:.4g}</text>'
        )
        l_tick = l_lo + k * (l_hi - l_lo) / 5.0
        y = sy(l_tick)
        parts.append(
            f'<line x1="{f(x0 - 5)}" y1="{f(y)}" x2="{f(x0)}" y2="{f(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{f(x0 - 9)}" y="{f(y + 4)}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{l_tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{f((x0 + x1) / 2)}" y="{f(_SVG_H - 14)}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">pressure (kPa)</text>'
    )
    parts.append(
        f'<text x="16" y="{f((y0 + y1) / 2)}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {f((y0 + y1) / 2)})">'
        "length (cm)</text>"
    )

    # grid markers: circles invert, crosses buckle
    # each coordinate is formatted once per row (x) or column (y)
    columns = []
    for length in diagram.lengths:
        y = sy(units.m_to_cm(length))
        columns.append((f(y), f(y - 3), f(y + 3)))
    invert = Verdict.INVERT
    for pressure, row in zip(diagram.pressures, diagram.grid):
        x = sx(units.pa_to_kpa(pressure))
        cx, left, right = f(x), f(x - 3), f(x + 3)
        for (cy, top, bottom), cell in zip(columns, row):
            if cell.verdict is invert:
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="3" fill="none" '
                    'stroke="#1a9641" stroke-width="1.2" class="invert"/>'
                )
            else:
                parts.append(
                    f'<path d="M {left} {top} L {right} {bottom} '
                    f'M {left} {bottom} L {right} {top}" '
                    'stroke="#d7191c" stroke-width="1.2" class="buckle"/>'
                )

    # modeled transition as a dotted polyline, clipped to the plotted range
    visible = [
        (p, l)
        for p, l in diagram.transition_curve
        if l_lo <= units.m_to_cm(l) <= l_hi
    ]
    if visible:
        points = " ".join(
            f"{f(sx(units.pa_to_kpa(p)))},{f(sy(units.m_to_cm(l)))}" for p, l in visible
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="black" '
            'stroke-width="1.5" stroke-dasharray="2 4" class="transition"/>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
