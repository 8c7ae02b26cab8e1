"""Shared fixtures: phantoms and projected sinograms reused across modules.

The fixture-scale projection (720 views x 384 detectors of a 256 x 256
phantom) is expensive, so it is computed once per session. The acceptance
tests collect one summary line per criterion; the terminal-summary hook
prints them after the run.
"""

import numpy as np
import pytest

import stridect as st

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def phantom256():
    return st.shepp_logan(256, 256)


@pytest.fixture(scope="session")
def geom720():
    return st.desk_geometry(720, 384, 256)


@pytest.fixture(scope="session")
def sino720(phantom256, geom720):
    return st.forward_project(phantom256, geom720)


@pytest.fixture(scope="session")
def phantom64():
    return st.shepp_logan(64, 64)


@pytest.fixture(scope="session")
def geom180():
    return st.desk_geometry(180, 256, 64)


@pytest.fixture(scope="session")
def sino180(phantom64, geom180):
    return st.forward_project(phantom64, geom180)


@pytest.fixture(scope="session")
def geom360():
    return st.desk_geometry(360, 256, 64)


@pytest.fixture(scope="session")
def sino360(phantom64, geom360):
    return st.forward_project(phantom64, geom360)


@pytest.fixture(scope="session")
def grid64():
    return st.ImageGrid(64, 64, 1.0, np.zeros((64, 64)))
