from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from vinebuckle import BodySpec, DeviceSpec

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "needs_numpy: runs the aperture fit, which imports numpy; "
        "skipped where numpy is missing"
    )


def pytest_runtest_setup(item):
    # every other test runs without numpy
    if item.get_closest_marker("needs_numpy") is not None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            pytest.skip("the aperture fit needs numpy")


@pytest.fixture
def body() -> BodySpec:
    return BodySpec()


@pytest.fixture
def device() -> DeviceSpec:
    return DeviceSpec()


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
