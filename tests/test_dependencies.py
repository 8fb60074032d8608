"""The installed numpy and scipy meet the floors pyproject.toml declares."""

import os
import re

import numpy
import scipy

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def release(version):
    """The (major, minor, micro) numbers of a version string."""
    major, minor, micro = re.match(r"(\d+)\.(\d+)(?:\.(\d+))?", version).groups(default="0")
    return int(major), int(minor), int(micro)


def declared_floors():
    with open(PYPROJECT) as fh:
        return dict(re.findall(r'"(\w+)>=([\d.]+)"', fh.read()))


def test_numpy_and_scipy_meet_declared_floors():
    floors = declared_floors()
    assert set(floors) >= {"numpy", "scipy"}
    for module in (numpy, scipy):
        assert release(module.__version__) >= release(floors[module.__name__]), (
            f"{module.__name__} {module.__version__} is below the declared "
            f">={floors[module.__name__]}")


def test_numpy_floor_has_numpy_exceptions():
    # pyproject.toml's filterwarnings names numpy.exceptions.ComplexWarning,
    # and numpy.exceptions first shipped in numpy 1.25
    assert release(declared_floors()["numpy"]) >= (1, 25, 0)
    assert hasattr(numpy.exceptions, "ComplexWarning")
