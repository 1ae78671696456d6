"""Recover empirical constants from bench measurements.

Two fits: the tip deformation force from tension-vs-pressure sweeps (least
squares with the slope pinned to half the cross-sectional area), and the
aperture force constants from pull-through tests at zero pressure (ordinary
least squares against inverse aperture area). Measurement CSVs use bench
units (kPa, cm^2, N); everything returned is SI.

The inversion fit is pure Python. numpy is imported by the aperture fit when
it runs, not with the module, so importing the package (and every CLI command
but ``fit aperture``) does not load it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterable, Sequence, Union

from . import units
from .device import ApertureShape


class MeasurementError(ValueError):
    """A measurement file failed validation; carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class EmptyMeasurementFileError(MeasurementError):
    """The measurement file contains no data rows at all."""


@dataclass(frozen=True)
class TensionSample:
    pressure: float       # Pa
    tail_tension: float   # N

    def __post_init__(self) -> None:
        units.check("pressure", self.pressure)
        units.check("tail_tension", self.tail_tension)


@dataclass(frozen=True)
class ApertureSample:
    aperture_area: float     # m^2
    inversion_force: float   # N; the bench measures 2*F_I (wall free to move)
    shape_tag: ApertureShape = ApertureShape.CIRCULAR

    def __post_init__(self) -> None:
        units.check("aperture_area", self.aperture_area, lo_open=True)
        units.check("inversion_force", self.inversion_force, lo_open=True)


@dataclass(frozen=True)
class InversionFit:
    inversion_force: float   # N
    residual_rms: float      # N


@dataclass(frozen=True)
class ApertureFit:
    c1: float             # N*m^2
    c2: float             # N
    residual_rms: float   # N


# numpy's overflow, invalid and divide-by-zero raise FloatingPointError (an
# ArithmeticError) inside the aperture fit instead of warning and returning a
# wrong fit; underflow to zero stays silent.
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum in numpy's float64 reduction order, so that a mean taken from it
    rounds exactly as ``np.mean`` does: a plain loop below 8 values, 8
    interleaved accumulators up to 128, and above that a split in halves
    whose first part is a multiple of 8 long."""
    n = len(values)
    if n < 8:
        return reduce(add, values, -0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(8)]
        blocks = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:], blocks)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def fit_inversion_force(samples: Sequence[TensionSample], area: float) -> InversionFit:
    """Fit the tip deformation force with the slope constrained to area/2.

    The constrained least squares estimate is the mean of
    tension - pressure*area/2 over all samples; duplicate trials count as
    individual equally weighted samples. Both means add from 0.0 in numpy's
    order (``_pairwise_sum``), so the fit is bit for bit ``np.mean``'s. A
    result that overflows raises FloatingPointError.
    """
    units.check("area", area, lo_open=True)
    if not samples:
        raise ValueError("need at least one tension sample")
    n = len(samples)
    offsets = [s.tail_tension - 0.5 * s.pressure * area for s in samples]
    f_i = (0.0 + _pairwise_sum(offsets)) / n
    rms = math.sqrt((0.0 + _pairwise_sum([(o - f_i) * (o - f_i) for o in offsets])) / n)
    # inf or NaN in f_i carries into rms
    if not math.isfinite(rms):
        raise FloatingPointError("overflow encountered in the tension fit")
    return InversionFit(inversion_force=f_i, residual_rms=rms)


def fit_aperture_constants(samples: Sequence[ApertureSample]) -> ApertureFit:
    """Fit F_I = C1/a + C2 by least squares on force/2 against 1/area.

    The stored forces are the measured 2*F_I, so they are halved before
    fitting. Needs at least two aperture areas far enough apart that the
    fit has full rank; polyfit would only warn and return a wrong line.
    """
    if len({s.aperture_area for s in samples}) < 2:
        raise ValueError("need samples at two or more distinct aperture areas")
    import numpy as np

    with np.errstate(**_RAISE):
        x = np.array([1.0 / s.aperture_area for s in samples])
        y = np.array([0.5 * s.inversion_force for s in samples])
        (c1, c2), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
        if rank < 2:
            raise ValueError("aperture areas too close together to fit a line (rank-deficient)")
        residuals = y - (c1 * x + c2)
        rms = float(np.sqrt(np.mean(residuals**2)))
    return ApertureFit(c1=float(c1), c2=float(c2), residual_rms=rms)


TENSION_HEADER = ["pressure_kpa", "tension_n"]
APERTURE_HEADER = ["area_cm2", "force_n", "shape"]

# shape column token -> member: a dict lookup per row, not an Enum call
_SHAPES = {member.value: member for member in ApertureShape}


def load_measurements(
    path: Union[str, Path], kind: str
) -> Union[list[TensionSample], list[ApertureSample]]:
    """Load a measurement CSV; ``kind`` is "tension" or "aperture".

    Rows may appear in any order. Raises MeasurementError with the 1-based
    data row index for malformed rows, EmptyMeasurementFileError for files
    with no data.
    """
    if kind not in ("tension", "aperture"):
        raise ValueError(f"unknown measurement kind {kind!r}")
    text = Path(path).read_text(encoding="utf-8")
    return parse_measurements(text, kind)


def parse_measurements(
    text: str, kind: str
) -> Union[list[TensionSample], list[ApertureSample]]:
    if kind not in ("tension", "aperture"):
        raise ValueError(f"unknown measurement kind {kind!r}")
    expected = TENSION_HEADER if kind == "tension" else APERTURE_HEADER
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise EmptyMeasurementFileError("measurement file is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != expected:
        raise MeasurementError(
            f"expected header {','.join(expected)!r}, got {','.join(header)!r}"
        )
    if len(rows) == 1:
        raise EmptyMeasurementFileError("measurement file has a header but no data rows")
    if kind == "tension":
        return [_parse_tension_row(r, i) for i, r in enumerate(rows[1:], start=1)]
    return [_parse_aperture_row(r, i) for i, r in enumerate(rows[1:], start=1)]


def _parse_float(cell: str, name: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MeasurementError(f"{name} is not numeric: {cell!r}", row=row) from None


def _parse_tension_row(cells: list[str], row: int) -> TensionSample:
    if len(cells) != 2:
        raise MeasurementError(f"expected 2 columns, got {len(cells)}", row=row)
    pressure_kpa = _parse_float(cells[0], "pressure_kpa", row)
    tension = _parse_float(cells[1], "tension_n", row)
    try:
        return TensionSample(
            pressure=units.kpa_to_pa(pressure_kpa), tail_tension=tension
        )
    except ValueError as exc:
        raise MeasurementError(str(exc), row=row) from None


def _parse_aperture_row(cells: list[str], row: int) -> ApertureSample:
    if len(cells) != 3:
        raise MeasurementError(f"expected 3 columns, got {len(cells)}", row=row)
    area_cm2 = _parse_float(cells[0], "area_cm2", row)
    force = _parse_float(cells[1], "force_n", row)
    shape_token = cells[2].strip().lower()
    shape = _SHAPES.get(shape_token)
    if shape is None:
        valid = ", ".join(_SHAPES)
        raise MeasurementError(
            f"unknown shape {shape_token!r}, expected one of: {valid}", row=row
        )
    try:
        return ApertureSample(
            aperture_area=units.cm2_to_m2(area_cm2),
            inversion_force=force,
            shape_tag=shape,
        )
    except ValueError as exc:
        raise MeasurementError(str(exc), row=row) from None


def filter_by_shape(
    samples: Iterable[ApertureSample], shape: ApertureShape
) -> list[ApertureSample]:
    return [s for s in samples if s.shape_tag is shape]
