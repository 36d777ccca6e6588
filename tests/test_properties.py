"""Property tests: the Lambert W round trip off the cut and its cut
identity, the DH quantile's round trip and order, the W1 metric axioms and
d_BL <= W1 on small empirical measures.  Skipped when hypothesis is not
installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from biortho import dh_law, special  # noqa: E402
from biortho.measures import EmpiricalMeasure, bl_distance, w1_distance  # noqa: E402

LEVELS = st.floats(min_value=2e-3, max_value=1.0 - 1e-9)
MEASURES = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                    max_size=12).map(EmpiricalMeasure)


@pytest.fixture(scope="module")
def law():
    return dh_law.default_law()


@settings(deadline=None)
@given(st.floats(min_value=-8.0, max_value=12.0),
       st.floats(min_value=-np.pi, max_value=np.pi))
@example(0.0, 5e-324)                   # z = 1 + 5e-324j: Im w underflows
@example(-0.43489873067477985, np.pi)   # z near -1/e, where 1 + w is small
def test_lambert_round_trip(log10_r, angle):
    z = 10.0 ** log10_r * complex(np.cos(angle), np.sin(angle))
    assume(not (z.imag == 0.0 and z.real < special.BRANCH_POINT))
    w = special.lambert_w0_complex(z)
    assert abs(w * np.exp(w) - z) <= 1e-12 * abs(z)
    if z.imag > 0.0:
        assert 0.0 < w.imag < np.pi


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


@settings(deadline=None)
@given(MEASURES, MEASURES, MEASURES)
def test_w1_metric_axioms(a, b, c):
    assert w1_distance(a, a) <= 1e-12
    ab = w1_distance(a, b)
    assert abs(ab - w1_distance(b, a)) <= 1e-12
    assert w1_distance(a, c) <= ab + w1_distance(b, c) + 1e-12


@settings(deadline=None)
@given(MEASURES, MEASURES)
@example(EmpiricalMeasure([0.0]), EmpiricalMeasure([1.999999999]))   # W1 just below 2
def test_bl_below_w1(a, b):
    assert bl_distance(a, b) <= w1_distance(a, b) + 1e-12
