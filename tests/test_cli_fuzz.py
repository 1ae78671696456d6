"""The CLI's input boundary, fuzzed in-process. Inputs are checked where they
enter (the CLI readers and the library's records), and the kernels behind
them trust what they are given, so every argv and every config or scenario
document must end in exit 0, 1 or 2: no traceback, no exit 3, no hang, and
RFC 8259 JSON on stdout whenever ``--json`` exits 0. The documents are
written as JSON text, so they can hold NaN, +-Infinity and 1e400 (which
Python's reader turns into inf), as well as strings, bools, nulls and
sections nested the wrong way.
"""

import contextlib
import io
import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinebuckle import cli

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

DATA = Path(__file__).resolve().parent / "data"
SECONDS_PER_CALL = 20

# JSON tokens that no reader may let through as a number
HOSTILE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", '"2"', "true", "false",
           "null", "[1, 2]", "{}", "-1", "0", "1e300", "1e-300"]
# Sensible values per document key. Curvatures and radii stay away from the
# nearly straight bodies whose closed form still exits 3 (pinned below).
SENSIBLE = {
    "radius_cm": ["2", "4.25", "8.5", "15"],
    "thickness_um": ["40", "74", "150"],
    "e_mpa": ["100", "300", "900"],
    "g_mpa": ["70", "210", "600"],
    "f_i_n": ["0.5", "3.5", "12"],
    "torque_ncm": ["12.25", "24.5", "50"],
    "roller_radius_cm": ["0.6", "1.2", "2.5"],
    "rpm_max": ["10", "33", "100"],
    "tip_ring_diameter_cm": ["2", "3.2", "5"],
    "routing_aperture_cm2": ["4", "8", "20"],
    "c1_ncm2": ["2", "6.1", "10"],
    "c2_n": ["1", "3.3", "6"],
    "mu_s": ["0.3", "0.8", "null"],
    "normal_force_n": ["20", "80", "null"],
    "efficiency": ["0", "0.3", "0.75", "1"],
    "initial_length_cm": ["0", "20", "120", "300"],
    "target_length_cm": ["50", "200", "310"],
    "pressure_kpa": ["0", "1.5", "3", "8", "null"],
    "pressure_schedule": ["[[0, 2], [150, 8], [300, 25]]", "[[-10, 0.3], [40, 2], [320, 5]]",
                          "[[0, 1], [400, 1]]", "[[0, 2]]", "[[1, 2], [0, 3]]", "[[0, NaN], [1, 2]]",
                          '[[0, "2"], [1, 3]]', "[1, 2]", "null"],
    "kappa_per_m": ["0", "0.22", "0.444", "1.389"],
    "step_cm": ["1", "2", "5", "10"],
    "motor_rpm": ["0", "10", "33", "100"],
    "base_takeup": ["true", "false"],
    "mode": ['"retract"', '"grow"', '"sideways"'],
}
BODY_KEYS = ["radius_cm", "thickness_um", "e_mpa", "g_mpa", "f_i_n"]
DEVICE_KEYS = ["torque_ncm", "roller_radius_cm", "rpm_max", "tip_ring_diameter_cm",
               "routing_aperture_cm2", "c1_ncm2", "c2_n", "mu_s", "normal_force_n", "efficiency"]
SCENARIO_KEYS = ["initial_length_cm", "target_length_cm", "pressure_kpa", "pressure_schedule",
                 "kappa_per_m", "step_cm", "motor_rpm", "efficiency", "base_takeup", "mode"]


def _value(key):
    sensible = st.sampled_from(SENSIBLE[key])
    return st.one_of(sensible, sensible, sensible, st.sampled_from(HOSTILE))


# A JSON text token for each key: mostly sensible, sometimes hostile.
VALUE = {key: _value(key) for key in SENSIBLE}


def json_object(pairs):
    return "{" + ", ".join(f'"{key}": {token}' for key, token in pairs) + "}"


@st.composite
def section(draw, keys):
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    pairs = [(key, draw(VALUE[key])) for key in chosen]
    if draw(st.integers(0, 9)) == 9:
        pairs.append(("no_such_key", "1"))
    return json_object(pairs)


def _nested(keys):
    return st.one_of(section(keys), section(keys), section(keys), st.sampled_from(HOSTILE))


# A section's text: an object of its keys, or a value of the wrong shape.
BODY, DEVICE = _nested(BODY_KEYS), _nested(DEVICE_KEYS)
# a scenario's device: a switch or a device section
SCENARIO_DEVICE = st.one_of(st.sampled_from(["true", "false", "null"]), DEVICE)


@st.composite
def config_doc(draw):
    pairs = [(name, draw(text)) for name, text in (("body", BODY), ("device", DEVICE))
             if draw(st.booleans())]
    if draw(st.integers(0, 9)) == 9:
        pairs.append(("motor", "{}"))
    return draw(st.sampled_from([json_object(pairs)] * 9 + ["[]", "NaN", "not json"]))


@st.composite
def scenario_doc(draw):
    if draw(st.integers(0, 2)) != 2:
        # a runnable core: a start and exactly one pressure form
        mode = draw(st.sampled_from(['"retract"', '"grow"']))
        pressure = draw(st.sampled_from([("pressure_kpa", token) for token in ("1.5", "3", "8")]
                                        + [("pressure_schedule", SENSIBLE["pressure_schedule"][0]),
                                           ("pressure_schedule", SENSIBLE["pressure_schedule"][1])]))
        core = {"mode": mode, "initial_length_cm": "120", "target_length_cm": "290",
                pressure[0]: pressure[1]}
    else:
        core = {}
    keys = [key for key in SCENARIO_KEYS if not (core and key.startswith("pressure"))]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    core.update((key, draw(VALUE[key])) for key in chosen)
    if "initial_length_cm" not in core and draw(st.integers(0, 5)) != 5:
        core["initial_length_cm"] = draw(VALUE["initial_length_cm"])
    pairs = list(core.items())
    if draw(st.booleans()):
        pairs.append(("body", draw(BODY)))
    if draw(st.booleans()):
        pairs.append(("device", draw(SCENARIO_DEVICE)))
    return draw(st.sampled_from([json_object(pairs)] * 9 + ["[]", "{", "1e400"]))


NUMBER = st.sampled_from(["0", "0.5", "2", "5.8", "9", "100", "300",
                          "nan", "inf", "-inf", "-1", "1e400", "abc", "1e-300"])
PRESSURE = st.one_of(st.sampled_from(["2", "5.8", "9", "0"]), NUMBER)
LENGTH = st.one_of(st.sampled_from(["100", "300", "0", "50"]), NUMBER)


@st.composite
def axis(draw, lows, highs):
    if draw(st.integers(0, 4)) != 4:
        lo, hi = draw(st.sampled_from(lows)), draw(st.sampled_from(highs))
        return f"{lo}:{hi}:{draw(st.integers(1, 20))}"
    parts = draw(st.lists(st.one_of(NUMBER, st.sampled_from(["0", "3", "1.5", "-2"])),
                          min_size=2, max_size=4))
    return ":".join(parts)


@st.composite
def command(draw):
    name = draw(st.sampled_from(["predict", "transition", "sweep", "device", "simulate", "fit"]))
    kappa = st.one_of(st.sampled_from(["0", "0.22", "0.444", "1.389", "10"]), NUMBER)
    if name == "predict":
        argv = ["predict", "--pressure-kpa", draw(PRESSURE), "--length-cm", draw(LENGTH)]
        if draw(st.booleans()):
            argv += ["--kappa-per-m", draw(kappa)]
        if draw(st.booleans()):
            argv += ["--device"]
        if draw(st.booleans()):
            argv += ["--efficiency", draw(st.one_of(st.sampled_from(["0", "0.5", "1"]), NUMBER))]
    elif name == "transition":
        argv = ["transition", "--pressure-kpa", draw(PRESSURE), "--kappa-per-m", draw(kappa)]
    elif name == "sweep":
        argv = ["sweep", "--p", draw(axis(["0", "1", "2"], ["5", "10", "20"])),
                "--l", draw(axis(["0", "10"], ["100", "300"])), "--kappa-per-m", draw(kappa)]
        argv += draw(st.sampled_from([[], ["--device"], ["--device", "--efficiency", "0.4"]]))
        argv += draw(st.sampled_from([[], ["--oracle-check"]]))
    elif name == "device":
        argv = ["device", "info"]
    elif name == "fit":
        argv = ["fit", "inversion", "--csv", str(DATA / "tension_sweep.csv")]
    else:
        return ["simulate", "--scenario", "{scenario}"] + draw(st.sampled_from([[], ["--json"]]))
    if draw(st.integers(0, 2)):
        argv += ["--config", "{config}"]
    return argv + draw(st.sampled_from([["--json"], ["--json"], []]))


class Hung(BaseException):
    """Raised by the alarm: no handler in ``cli.main`` may catch it."""


def _alarm(signum, frame):
    raise Hung(f"a call ran past {SECONDS_PER_CALL} s")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS_PER_CALL)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def check_call(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, (argv, err)
    if code == 0 and "--json" in argv:
        json.loads(out, parse_constant=_no_constant)
    else:
        assert code == 0 or (out == "" and err.startswith("error:")), (argv, out, err)
    return code


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_input_exits_0_1_or_2_without_a_traceback(docs):
    codes = set()

    @settings(max_examples=120, derandomize=True)
    @given(argv=command(), config=config_doc(), scenario=scenario_doc())
    def call(argv, config, scenario):
        (docs / "config.json").write_text(config)
        (docs / "scenario.json").write_text(scenario)
        paths = {"{config}": str(docs / "config.json"), "{scenario}": str(docs / "scenario.json")}
        argv = [paths.get(arg, arg) for arg in argv]
        codes.add((argv[0], check_call(argv)))

    call()
    # the strategies reach the computing code, not only the readers
    assert {("predict", 0), ("sweep", 0), ("simulate", 0)} <= codes


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the near-straight curved closed form misses "
                   "the bisection root: a valid input reports an implementation bug")
def test_near_straight_prediction_exits_0_1_or_2():
    check_call(["predict", "--pressure-kpa", "1.24", "--length-cm", "100",
                "--kappa-per-m", "1e-6"])
