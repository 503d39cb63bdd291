"""Shared fixtures.  The exact scattering runs are minutes each, so every
expensive result is computed once per session and reused by both the module
tests and the acceptance tests, with its wall time kept alongside."""
import os
import time
from pathlib import Path

import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    Kind,
    casimir_energy_exact,
    casimir_force_exact,
)

# pyproject.toml puts src on this process's path; the CLI tests' child
# interpreters (`python -m casimir_cylinders`) need it in their environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def energy_dd_01():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    return _timed(casimir_energy_exact, pair, BoundaryPair.DD, 1e-4)


@pytest.fixture(scope="session")
def energy_dd_005():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.05)
    return _timed(casimir_energy_exact, pair, BoundaryPair.DD, 1e-4)


@pytest.fixture(scope="session")
def energy_dd_02():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.2)
    return _timed(casimir_energy_exact, pair, BoundaryPair.DD, 1e-4)


@pytest.fixture(scope="session")
def energy_dn_01():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    return _timed(casimir_energy_exact, pair, BoundaryPair.DN, 1e-4)


@pytest.fixture(scope="session")
def force_dd_01():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    return _timed(casimir_force_exact, pair, BoundaryPair.DD, 1e-3)


@pytest.fixture(scope="session")
def force_dn_01():
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    return _timed(casimir_force_exact, pair, BoundaryPair.DN, 1e-3)


@pytest.fixture(scope="session")
def exterior_swap_quad():
    """DD(1,2), DD(2,1), DN(1,2), ND(2,1) exterior energies at d=0.2."""
    t0 = time.perf_counter()
    runs = {
        "dd_12": casimir_energy_exact(
            CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.2), BoundaryPair.DD, 1e-4),
        "dd_21": casimir_energy_exact(
            CylinderPair(Kind.EXTERIOR, 2.0, 1.0, 0.2), BoundaryPair.DD, 1e-4),
        "dn_12": casimir_energy_exact(
            CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.2), BoundaryPair.DN, 1e-4),
        "nd_21": casimir_energy_exact(
            CylinderPair(Kind.EXTERIOR, 2.0, 1.0, 0.2), BoundaryPair.ND, 1e-4),
    }
    return runs, time.perf_counter() - t0
