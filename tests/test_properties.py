"""Property tests: the Lambert W round trip off the cut and its cut
identity, the DH quantile's round trip and order, the W1 metric axioms,
d_BL <= W1 on small empirical measures and d_BL = W1 on a span of at most
2, and the proof-lab Riemann sums and ratio statistics at any block size.
Skipped when hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from biortho import dh_law, measures, proof_lab, special  # noqa: E402
from biortho.gas_sampler import GFunction  # noqa: E402
from biortho.measures import EmpiricalMeasure, bl_distance, w1_distance  # noqa: E402

LEVELS = st.floats(min_value=2e-3, max_value=1.0 - 1e-9)
MEASURES = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                    max_size=12).map(EmpiricalMeasure)
SHORT_SPAN = st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=12)


@pytest.fixture(scope="module")
def law():
    return dh_law.DHLaw()


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
    w = special.lambert_w0_cut_above_log(tau)
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


@settings(deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0), SHORT_SPAN, SHORT_SPAN)
@example(0.0, [0.0, 0.2, 0.4], [0.4, 0.9])     # a tie at 0.4
def test_bl_equals_w1_on_short_span(base, xa, xb):
    # a potential with slopes +-1 on a span of at most 2 fits in [-1, 1];
    # both distances then read the same merged support and sum the same terms
    a, b = EmpiricalMeasure(base + np.array(xa)), EmpiricalMeasure(base + np.array(xb))
    both = np.concatenate([a.points, b.points])
    assume(both.max() - both.min() <= 2.0)
    assert bl_distance(a, b) == w1_distance(a, b)


@settings(deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=3, max_size=60),
       st.integers(min_value=1, max_value=200))
def test_riemann_sum_block_invariant(widths, pair_block):
    # any block size gives the bits of the one-shot n x n gather
    a = 1.0 + np.cumsum(widths)
    gap = np.diff(a)
    grid = proof_lab.QuantileGrid(a=a, c=a[:-1] + gap / 3.0, d=a[1:] - gap / 3.0)
    n = grid.n
    full = -np.log((grid.d[:, None] - grid.c[None, :])[np.tri(n, k=-1, dtype=bool)])
    old = measures._PAIR_BLOCK
    measures._PAIR_BLOCK = pair_block
    try:
        s = proof_lab.energy_gap(grid, GFunction("identity"), 0.0, 0.0).riemann_sum
    finally:
        measures._PAIR_BLOCK = old
    assert s == float(full.sum() / n ** 2)


G_KINDS = [GFunction("power", 2.0), GFunction("log"), GFunction("asinh2"),
           GFunction("exp"), GFunction("identity")]


@settings(deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=3, max_size=60),
       st.integers(min_value=1, max_value=200),
       st.floats(min_value=1e-14, max_value=3.0),
       st.sampled_from(G_KINDS))
@example([1.0, 2.0, 0.5, 3.0], 2, 1e-15, GFunction("log"))
def test_ratio_statistics_block_invariant(widths, pair_block, eps, g):
    # max and count of the one-shot n x n gather, bit for bit, at any block
    # size: eps near 1e-14 certifies no pair (below 2^-49 none is tried),
    # eps past 1/2 can leave the band max below 1 + eps and walk every pair
    # again
    a = 1.0 + np.cumsum(widths)
    gap = np.diff(a)
    grid = proof_lab.QuantileGrid(a=a, c=a[:-1] + gap / 3.0, d=a[1:] - gap / 3.0)
    n = grid.n
    expected = []
    for x, c, d in ((grid.a, grid.c, grid.d), (g(grid.a), g(grid.c), g(grid.d))):
        r = ((x[1:][:, None] - x[:-1][None, :]) / (d[:, None] - c[None, :]))[
            np.tri(n, k=-1, dtype=bool)]
        expected += [float(r.max()), float(2.0 * np.sum(r <= 1.0 + eps) / n ** 2)]
    old = measures._PAIR_BLOCK
    measures._PAIR_BLOCK = pair_block
    try:
        stats = proof_lab.ratio_statistics(grid, g, eps)
    finally:
        measures._PAIR_BLOCK = old
    assert [stats.a_max, stats.fraction, stats.a_max_g, stats.fraction_g] == expected
