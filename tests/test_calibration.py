"""Calibration fits and measurement CSV parsing.

The two CSV fixtures under data/ were read off the bench plots of the
reference hardware and are approximate; their fit checks use the loose
tolerances that match that provenance. Synthetic data checks are exact.
"""

import math
import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vinebuckle import (
    ApertureSample,
    ApertureShape,
    BodySpec,
    EmptyMeasurementFileError,
    MeasurementError,
    TensionSample,
    fit_aperture_constants,
    fit_inversion_force,
    load_measurements,
    units,
)
from vinebuckle.calibration import filter_by_shape, parse_measurements


def _numpy_missing() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return True
    return False


# The aperture fit imports numpy when it runs; every other test here runs
# without it.
needs_numpy = pytest.mark.skipif(_numpy_missing(), reason="the aperture fit needs numpy")


def synthetic_tension(f_i: float, area: float, pressures_pa) -> list[TensionSample]:
    return [
        TensionSample(pressure=p, tail_tension=0.5 * p * area + f_i) for p in pressures_pa
    ]


class TestInversionFit:
    def test_recovers_exact_synthetic_data(self, body):
        samples = synthetic_tension(3.5, body.cross_section_area, [0, 2e3, 4e3, 8e3])
        fit = fit_inversion_force(samples, body.cross_section_area)
        assert fit.inversion_force == pytest.approx(3.5, rel=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_bench_fixture_recovers_offset(self, body, data_dir):
        samples = load_measurements(data_dir / "tension_sweep.csv", "tension")
        assert len(samples) == 18
        fit = fit_inversion_force(samples, body.cross_section_area)
        assert fit.inversion_force == pytest.approx(3.5, abs=0.1)

    @given(noise=st.floats(min_value=0.0, max_value=0.5), seed=st.integers(0, 2**16))
    def test_symmetric_noise_bounds_the_error(self, noise, seed):
        body = BodySpec()
        rng = random.Random(seed)
        samples = [
            TensionSample(
                pressure=p,
                tail_tension=0.5 * p * body.cross_section_area
                + 3.5
                + rng.uniform(-noise, noise),
            )
            for p in (0, 1e3, 2e3, 5e3, 8e3, 10e3)
        ]
        fit = fit_inversion_force(samples, body.cross_section_area)
        assert abs(fit.inversion_force - 3.5) <= noise + 1e-12

    def test_reorder_invariance(self, body, data_dir):
        samples = load_measurements(data_dir / "tension_sweep.csv", "tension")
        fit = fit_inversion_force(samples, body.cross_section_area)
        fit_rev = fit_inversion_force(list(reversed(samples)), body.cross_section_area)
        assert fit.inversion_force == pytest.approx(fit_rev.inversion_force, rel=1e-12)

    def test_duplicating_every_sample_changes_nothing(self, body, data_dir):
        # trials are individual equally weighted samples
        samples = list(load_measurements(data_dir / "tension_sweep.csv", "tension"))
        fit = fit_inversion_force(samples, body.cross_section_area)
        doubled = fit_inversion_force(samples + samples, body.cross_section_area)
        assert doubled.inversion_force == pytest.approx(fit.inversion_force, rel=1e-12)
        assert doubled.residual_rms == pytest.approx(fit.residual_rms, rel=1e-12)

    def test_constraint_never_beats_free_fit(self, body, data_dir):
        np = pytest.importorskip("numpy")
        samples = load_measurements(data_dir / "tension_sweep.csv", "tension")
        constrained = fit_inversion_force(samples, body.cross_section_area)
        p = np.array([s.pressure for s in samples])
        t = np.array([s.tail_tension for s in samples])
        slope, offset = np.polyfit(p, t, 1)
        free_rms = math.sqrt(np.mean((t - (slope * p + offset)) ** 2))
        assert constrained.residual_rms >= free_rms - 1e-12

    def test_empty_input_rejected(self, body):
        with pytest.raises(ValueError):
            fit_inversion_force([], body.cross_section_area)


def numpy_inversion_fit(samples, area):
    """The numpy formula that ``fit_inversion_force`` replaced."""
    np = pytest.importorskip("numpy")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        offsets = np.array([s.tail_tension - 0.5 * s.pressure * area for s in samples])
        f_i = float(np.mean(offsets))
        rms = float(np.sqrt(np.mean((offsets - f_i) ** 2)))
    return f_i, rms


class TestInversionFitMatchesNumpy:
    # numpy's summation changes its blocking at 8 and 128 values, and 8192
    # is its buffer size
    @given(
        length=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 8193, 9001]),
        exponent=st.floats(min_value=-3.0, max_value=3.0),
        zeros=st.sampled_from(["none", "some", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_numpy_formula_bit_for_bit(self, length, exponent, zeros, seed):
        area = BodySpec().cross_section_area
        rng = random.Random(seed)
        magnitude = 10.0**exponent
        samples = []
        for _ in range(length):
            if zeros == "all" or (zeros == "some" and rng.random() < 0.5):
                samples.append(TensionSample(pressure=0.0, tail_tension=-0.0))
            else:
                p = rng.uniform(0.0, 1e4)
                t = 0.5 * p * area + magnitude * rng.uniform(0.5, 1.5)
                samples.append(TensionSample(pressure=p, tail_tension=t))
        expected = numpy_inversion_fit(samples, area)
        fit = fit_inversion_force(samples, area)
        assert (fit.inversion_force, fit.residual_rms) == expected
        assert [math.copysign(1.0, x) for x in (fit.inversion_force, fit.residual_rms)] == [
            math.copysign(1.0, x) for x in expected
        ]


class TestApertureFit:
    @needs_numpy
    def test_recovers_exact_synthetic_data(self):
        c1, c2 = 6.1e-4, 3.3
        samples = [
            ApertureSample(aperture_area=a, inversion_force=2 * (c1 / a + c2))
            for a in (1e-4, 3e-4, 8e-4, 2e-3)
        ]
        fit = fit_aperture_constants(samples)
        assert fit.c1 == pytest.approx(c1, rel=1e-9)
        assert fit.c2 == pytest.approx(c2, rel=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    @needs_numpy
    def test_two_point_solve(self):
        # measured forces are 2*F_I: 2*9.4 N at 1 cm^2, 2*3.3 N far out
        samples = [
            ApertureSample(aperture_area=1e-4, inversion_force=2 * 9.4),
            ApertureSample(aperture_area=100.0, inversion_force=2 * 3.3),
        ]
        fit = fit_aperture_constants(samples)
        assert fit.c1 == pytest.approx(6.1e-4, rel=1e-4)
        assert fit.c2 == pytest.approx(3.3, rel=1e-4)

    @needs_numpy
    def test_bench_fixture_recovers_constants(self, data_dir):
        samples = load_measurements(data_dir / "aperture_force.csv", "aperture")
        circular = filter_by_shape(samples, ApertureShape.CIRCULAR)
        assert len(circular) == 28
        fit = fit_aperture_constants(circular)
        assert fit.c1 == pytest.approx(6.1e-4, rel=0.10)
        assert fit.c2 == pytest.approx(3.3, rel=0.10)

    @needs_numpy
    def test_rectangles_fall_close_to_circle_fit(self, data_dir):
        samples = load_measurements(data_dir / "aperture_force.csv", "aperture")
        circular_fit = fit_aperture_constants(filter_by_shape(samples, ApertureShape.CIRCULAR))
        for sample in filter_by_shape(samples, ApertureShape.RECTANGULAR):
            modeled = circular_fit.c1 / sample.aperture_area + circular_fit.c2
            assert 0.5 * sample.inversion_force == pytest.approx(modeled, rel=0.15)

    @pytest.mark.parametrize(
        "fit,args",
        [
            # the sum of the offsets overflows: the mean was inf
            (fit_inversion_force, ([TensionSample(0.0, 1.7e308)] * 2, 1e-3)),
            # the mean is finite but the squared deviation 2.5e399 is not
            (fit_inversion_force, ([TensionSample(0.0, 1e200), TensionSample(0.0, 0.0)], 1e-3)),
            # polyfit's column scale squares 1/area and overflows: the slope
            # came out 0 and the intercept 5.125, where the exact fit is 0, 5.5
            pytest.param(
                fit_aperture_constants,
                ([ApertureSample(1e-304, 10.0), ApertureSample(2e-304, 10.5)],),
                marks=needs_numpy,
            ),
        ],
        ids=["inversion", "inversion-deviation", "aperture"],
    )
    def test_overflow_raises_instead_of_a_wrong_fit(self, fit, args):
        with pytest.raises(FloatingPointError, match="overflow"):
            fit(*args)

    def test_single_area_is_rank_deficient(self):
        samples = [
            ApertureSample(aperture_area=5e-4, inversion_force=9.0),
            ApertureSample(aperture_area=5e-4, inversion_force=9.1),
        ]
        with pytest.raises(ValueError):
            fit_aperture_constants(samples)

    @needs_numpy
    def test_areas_one_ulp_apart_are_rank_deficient(self):
        # polyfit only warned and returned c1 12.8125 N*cm^2 with residual
        # 0.125 N, where a line through two points has residual 0
        samples = [
            ApertureSample(aperture_area=units.cm2_to_m2(5.0), inversion_force=10.0),
            ApertureSample(aperture_area=units.cm2_to_m2(5.000000000000001), inversion_force=10.5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rank-deficient"):
                fit_aperture_constants(samples)


class TestLoadMeasurements:
    def test_well_formed_tension_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n0.0,3.4\n2.0,9.2\n10.0,31.9\n")
        samples = load_measurements(path, "tension")
        assert len(samples) == 3
        assert samples[0].pressure == 0.0
        assert samples[1].pressure == pytest.approx(2000.0)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n10.0,31.9\n0.0,3.4\n")
        samples = load_measurements(path, "tension")
        assert [s.pressure for s in samples] == [10e3, 0.0]

    def test_negative_pressure_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n1.0,5.0\n-2.0,9.2\n")
        with pytest.raises(MeasurementError, match="row 2"):
            load_measurements(path, "tension")

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\nfoo,9.2\n")
        with pytest.raises(MeasurementError, match="row 1"):
            load_measurements(path, "tension")

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n1.0,2.0,3.0\n")
        with pytest.raises(MeasurementError, match="columns"):
            load_measurements(path, "tension")

    def test_empty_file_is_a_distinct_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(EmptyMeasurementFileError):
            load_measurements(path, "tension")

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n")
        with pytest.raises(EmptyMeasurementFileError):
            load_measurements(path, "tension")

    def test_empty_error_is_still_a_measurement_error(self):
        assert issubclass(EmptyMeasurementFileError, MeasurementError)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure,tension\n1.0,2.0\n")
        with pytest.raises(MeasurementError, match="header"):
            load_measurements(path, "tension")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pressure_kpa,tension_n\n1.0,2.0\n")
        with pytest.raises(ValueError, match="kind"):
            load_measurements(path, "weights")

    def test_aperture_shapes_parse(self):
        text = "area_cm2,force_n,shape\n5.0,9.0,circle\n4.0,10.1,rect\n8.04,8.2,device\n"
        samples = parse_measurements(text, "aperture")
        assert [s.shape_tag for s in samples] == [
            ApertureShape.CIRCULAR,
            ApertureShape.RECTANGULAR,
            ApertureShape.DEVICE,
        ]
        assert samples[0].aperture_area == pytest.approx(5e-4)

    @pytest.mark.parametrize(
        "rows,row,message",
        [
            ("5.0,9.0,circle\n5.0,9.0\n", 2, "row 2: expected 3 columns, got 2"),
            ("0,9.0,circle\n", 1, "row 1: aperture_area must be finite and > 0"),
        ],
    )
    def test_bad_aperture_row_carries_its_row(self, rows, row, message):
        with pytest.raises(MeasurementError, match=message) as caught:
            parse_measurements("area_cm2,force_n,shape\n" + rows, "aperture")
        assert caught.value.row == row

    def test_unknown_shape_names_row(self):
        text = "area_cm2,force_n,shape\n5.0,9.0,triangle\n"
        with pytest.raises(MeasurementError, match="row 1"):
            parse_measurements(text, "aperture")
