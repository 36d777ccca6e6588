"""Property tests: the Lambert W cut identity, and the DH quantile's round
trip and order.  Skipped when hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biortho import dh_law, special  # noqa: E402

LEVELS = st.floats(min_value=2e-3, max_value=1.0 - 1e-9)


@pytest.fixture(scope="module")
def law():
    return dh_law.default_law()


@settings(deadline=None)
@given(st.floats(min_value=-1.0, max_value=1e12, exclude_min=True))
def test_cut_identity_and_strip(tau):
    w = special.lambert_w0_cut_above_log(tau)[0]
    assert 0.0 < w.imag < np.pi
    assert abs(np.log(abs(w)) + w.real - tau) <= 1e-12 * max(1.0, abs(tau))


@settings(deadline=None)
@given(LEVELS)
def test_quantile_round_trip(law, p):
    assert abs(law.cdf(law.quantile(p)) - p) <= 1e-8


@settings(deadline=None)
@given(LEVELS, LEVELS)
def test_quantile_monotone(law, p1, p2):
    # levels a few ulps apart resolve to within rounding in either order
    lo, hi = min(p1, p2), max(p1, p2)
    q = law.quantile(np.array([lo, hi]))
    assert q[0] < q[1] or hi - lo <= 1e-12
