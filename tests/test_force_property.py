"""Property check of the per-xi force term against a log-det difference."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from casimir_cylinders import CylinderPair, Kind  # noqa: E402
from casimir_cylinders.geometry import SCALAR_PAIRS  # noqa: E402
from casimir_cylinders.scattering import xi_rows  # noqa: E402


@st.composite
def _geometries(draw):
    kind = draw(st.sampled_from([Kind.INTERIOR, Kind.EXTERIOR]))
    a = draw(st.floats(0.3, 2.0))
    if kind is Kind.INTERIOR:
        b = a * draw(st.floats(1.2, 4.0))
        gap = b - a
    else:
        b = draw(st.floats(0.3, 3.0))
        gap = min(a, b)
    d = gap * draw(st.floats(0.05, 0.5))
    # xi d >= 0.06 keeps ln det(1 - M) well above the series cut-off
    xi = draw(st.floats(0.06, 1.5)) / d
    return CylinderPair(kind, a, b, d), draw(st.sampled_from(SCALAR_PAIRS)), xi


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_geometries())
def test_force_term_is_minus_logdet_derivative(case):
    pair, bc, xi = case
    h = 1e-4 * pair.d
    got = np.sum(xi_rows(pair, bc, np.array([xi]), 6, 1e-14, "force")[0])
    hi, lo = (np.sum(xi_rows(CylinderPair(pair.kind, pair.a, pair.b, g), bc,
                             np.array([xi]), 6, 1e-14)[0])
              for g in (pair.d + h, pair.d - h))
    want = -(hi - lo) / (2.0 * h)
    assert abs(got - want) <= 1e-6 * abs(want)
