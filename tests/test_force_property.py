"""Property check of the per-xi force term against a log-det difference."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir_cylinders import (  # noqa: E402
    BoundaryPair,
    CylinderPair,
    Kind,
    build_matrix,
    log_det_one_minus,
)
from casimir_cylinders.scattering import (  # noqa: E402
    _force_blocks,
    _force_trace,
)

_SCALAR = [BoundaryPair.DD, BoundaryPair.NN, BoundaryPair.DN, BoundaryPair.ND]


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
    return CylinderPair(kind, a, b, d), draw(st.sampled_from(_SCALAR)), xi


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_geometries())
def test_force_term_is_minus_logdet_derivative(case):
    pair, bc, xi = case
    h = 1e-4 * pair.d
    got = _force_trace(_force_blocks(pair, bc, xi, 6, 1e-14)[0])
    hi, lo = (log_det_one_minus(build_matrix(
        CylinderPair(pair.kind, pair.a, pair.b, g), bc, xi, 6, tol=1e-14))
        for g in (pair.d + h, pair.d - h))
    want = -(hi - lo) / (2.0 * h)
    assert abs(got - want) <= 1e-6 * abs(want)
