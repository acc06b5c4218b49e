import warnings

import pytest
from hypothesis import settings

import schwarzbundles as sb

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")

# Hypothesis imports hypothesis.extra._patching to report a failing example.
# That import warns from third-party code (mypy_extensions.TypedDict, through
# libcst), and filterwarnings = "error" would turn the warning into an
# INTERNALERROR that ends the run. Import it once here with its
# DeprecationWarnings silenced; every other warning still fails the run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # optional dependencies missing: nothing to patch
        pass


@pytest.fixture(scope="session")
def disk():
    return sb.build_circle(0, 1)


@pytest.fixture(scope="session")
def disk_grid(disk):
    return sb.sample(disk, 512)


@pytest.fixture(scope="session")
def cardioid():
    # image of the unit circle under zeta + 0.3 zeta^2
    return sb.build_polynomial_curve([0, 1, 0.3], 0.7)


@pytest.fixture(scope="session")
def cardioid_grid(cardioid):
    return sb.sample(cardioid, 1024)


@pytest.fixture(scope="session")
def unit_square():
    return sb.build_polygon([0, 1, 1 + 1j, 1j])
