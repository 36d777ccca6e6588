"""Quantile grids, spacing and ratio estimates, energy gaps, BL control."""

import numpy as np
import pytest

from biortho import dh_law, measures, proof_lab as pl
from biortho.gas_sampler import GFunction


# g' of the interaction maps the derivative-range test draws, in closed form
G_PRIME = {"power": lambda x, t: t * x ** (t - 1.0),
           "log": lambda x, t: 1.0 / x,
           "asinh2": lambda x, t: np.arcsinh(np.sqrt(x)) / (np.sqrt(x) * np.sqrt(1.0 + x))}


def full_gather_fields(grid, g, eps):
    """RatioStats fields from one n x n gather of every pair i < j: the
    reference the blocked reduction must match bit for bit."""
    n = grid.n
    fields = []
    for a, c, d in ((grid.a, grid.c, grid.d), (g(grid.a), g(grid.c), g(grid.d))):
        full = (a[1:][:, None] - a[:-1][None, :]) / (d[:, None] - c[None, :])
        fields.append(full[np.tri(n, k=-1, dtype=bool)])
    r, rg = fields
    return [float(r.max()), float(rg.max()),
            float(2.0 * np.sum(r <= 1.0 + eps) / n ** 2),
            float(2.0 * np.sum(rg <= 1.0 + eps) / n ** 2)]


@pytest.fixture(scope="module")
def uniform12():
    return pl.uniform_nice(1.0, 2.0)


@pytest.fixture(scope="module")
def dh_trunc():
    return pl.truncated_dh(0.1)


class TestGridConstruction:
    def test_uniform_quantiles(self):
        sig = pl.uniform_nice(1e-9, 1.0)   # effectively uniform[0,1]
        grid = pl.build_quantile_grid(sig, 4)
        assert np.allclose(grid.a, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-8)

    def test_uniform_gaps_exact(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 100)
        assert np.allclose(np.diff(grid.a), 0.01, rtol=0, atol=1e-15)

    def test_thirds(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 10)
        gaps = np.diff(grid.a)
        assert np.allclose(grid.c, grid.a[:-1] + gaps / 3)
        assert np.allclose(grid.d, grid.a[1:] - gaps / 3)
        assert np.all(grid.d > grid.c)

    def test_truncated_dh_strictly_increasing(self, dh_trunc):
        grid = pl.build_quantile_grid(dh_trunc, 100)
        assert np.all(np.diff(grid.a) > 0)
        assert grid.a[0] == dh_trunc.a and grid.a[-1] == dh_trunc.b

    def test_minimum_n(self, uniform12):
        with pytest.raises(ValueError):
            pl.build_quantile_grid(uniform12, 1)


class TestSpacingBounds:
    def test_uniform_exact(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 100)
        ok, worst = pl.check_spacing_bounds(grid, 1.0)
        assert ok
        assert worst == pytest.approx(1.0, abs=1e-10)

    def test_undersized_c_fails(self):
        sig = pl.uniform_nice(1e-9, 1.0)
        grid = pl.build_quantile_grid(sig, 50)
        ok, worst = pl.check_spacing_bounds(grid, 0.5)
        assert not ok
        assert worst == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_truncated_dh_with_measured_bound(self, dh_trunc, n):
        grid = pl.build_quantile_grid(dh_trunc, n)
        ok, worst = pl.check_spacing_bounds(grid, dh_trunc.C)
        assert ok and worst <= 1.0 + 1e-12


class TestRatioStatistics:
    def test_uniform_a_max_hand_value(self, uniform12):
        # adjacent pair: (a_j - a_{i-1})/(d_j - c_i) = 2/(4/3) = 3/2,
        # and the ratio (k+1)/(k+1/3) decreases in the lag k
        grid = pl.build_quantile_grid(uniform12, 200)
        stats = pl.ratio_statistics(grid, GFunction("identity"), 0.1)
        assert stats.a_max == pytest.approx(1.5, abs=1e-9)

    def test_uniform_fraction_enumeration(self, uniform12):
        # (k+1)/(k+1/3) <= 1.1 exactly when the lag k >= 7
        n = 1000
        grid = pl.build_quantile_grid(uniform12, n)
        stats = pl.ratio_statistics(grid, GFunction("identity"), 0.1)
        pairs_ok = sum(n - k for k in range(7, n))
        assert stats.fraction == pytest.approx(2.0 * pairs_ok / n ** 2, abs=1e-12)
        assert stats.fraction >= 0.95

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
    def test_rejects_nonpositive_eps(self, uniform12, eps):
        grid = pl.build_quantile_grid(uniform12, 50)
        with pytest.raises(ValueError):
            pl.ratio_statistics(grid, GFunction("identity"), eps)

    def test_identity_g_matches_plain(self, dh_trunc):
        grid = pl.build_quantile_grid(dh_trunc, 150)
        stats = pl.ratio_statistics(grid, GFunction("identity"), 0.05)
        assert stats.a_max_g == stats.a_max
        assert stats.fraction_g == stats.fraction

    def test_fraction_nondecreasing_in_n(self, uniform12):
        for eps in (0.05, 0.1):
            fr = [pl.ratio_statistics(pl.build_quantile_grid(uniform12, n),
                                      GFunction("identity"), eps).fraction
                  for n in (100, 300, 1000)]
            assert fr[0] <= fr[1] <= fr[2]

    def test_a_max_within_density_bound_budget(self, uniform12, dh_trunc):
        # chain bound: the span from c_i to d_{i+k} covers k+1 quantile
        # intervals less a third at each end, so the ratio is at most
        # ((k+1)C/n) / ((k+1/3)/(Cn)) <= 1.5 C^2, attained at lag 1 for the
        # uniform law (where A_max is exactly 3/2)
        for sigma in (uniform12, dh_trunc):
            grid = pl.build_quantile_grid(sigma, 300)
            stats = pl.ratio_statistics(grid, GFunction("identity"), 0.1)
            assert stats.a_max <= 1.5 * sigma.C ** 2 * (1 + 1e-12)

    @pytest.mark.parametrize("g", [GFunction("power", 2.0), GFunction("log"),
                                   GFunction("asinh2")])
    def test_g_ratio_controlled_by_derivative_range(self, dh_trunc, g):
        grid = pl.build_quantile_grid(dh_trunc, 200)
        stats = pl.ratio_statistics(grid, g, 0.1)
        xs = np.linspace(dh_trunc.a, dh_trunc.b, 4001)
        dv = G_PRIME[g.kind](xs, g.theta)
        bound = (dv.max() / dv.min()) * stats.a_max
        assert stats.a_max_g <= bound * (1 + 1e-9)


class TestCertifiedBand:
    def test_far_pairs_need_no_division(self, uniform12):
        # lags k >= 13 are certified, so each row divides at most 12 ratios,
        # and the identity image reuses the plain fields
        n = 1000
        grid = pl.build_quantile_grid(uniform12, n)
        stats = pl.ratio_statistics(grid, GFunction("identity"), 0.1)
        assert stats.evaluated < 0.03 * 2 * n * (n - 1) // 2

    def test_band_below_bound_walks_every_pair(self, uniform12):
        # eps = 0.7: every ratio (k+1)/(k+1/3) <= 3/2 < 1.7 (and the log
        # image stays below 1.7 too), so neither band max can be the global
        # max and both maps walk all 1225 pairs again
        grid = pl.build_quantile_grid(uniform12, 50)
        g = GFunction("log")
        stats = pl.ratio_statistics(grid, g, 0.7)
        assert [stats.a_max, stats.a_max_g, stats.fraction, stats.fraction_g] == \
            full_gather_fields(grid, g, 0.7)
        assert stats.fraction == stats.fraction_g == 2.0 * (50 * 49 // 2) / 50 ** 2
        assert stats.evaluated == 2 * 50 * 49 // 2

    def test_identity_image_divides_once(self, dh_trunc):
        grid = pl.build_quantile_grid(dh_trunc, 120)
        same = pl.ratio_statistics(grid, GFunction("identity"), 0.1)
        mapped = pl.ratio_statistics(grid, GFunction("power", 1.5), 0.1)
        plain_only = pl.ratio_statistics(grid, GFunction("power", 1.0), 0.1)
        assert same == plain_only
        assert same.evaluated < mapped.evaluated
        gaps = pl.energy_gap(grid, GFunction("identity"), 0.5, 0.5)
        assert gaps.riemann_sum_g == gaps.riemann_sum


class TestParity:
    # Values recorded before the pair passes were blocked, with numpy 2.4.6
    # on an x86-64 Xeon (AVX-512 dispatch).  numpy's log may differ in the
    # last bit on another SIMD target, so a mismatch on a different CPU or
    # numpy build need not mean a change in the pair passes.  The dh grid
    # reads F(0.1) and F(e - 0.1) through the cut solve, so its values were
    # re-recorded when the solve's starts changed; the pair passes from
    # before reproduce them on that grid.
    PARITY_PINS = {
        "uniform": ((1.0, 2.0), 1000, "identity",
                    ["0x1.8000000000000p+0", "0x1.8000000000000p+0",
                     "0x1.f95d91ab8e8eap-1", "0x1.f95d91ab8e8eap-1"],
                    ["0x1.7cb1e9782e6efp-1", "0x1.7cb1e9782e6efp-1"]),
        "dh": ((0.1,), 100, "log",
               ["0x1.8000000000019p+0", "0x1.801648bf9f147p+0",
                "0x1.bf7ced916872bp-1", "0x1.bf7ced916872bp-1"],
               ["0x1.7f5cdea5fbf59p-2", "0x1.4098d3e06c060p-3"]),
    }

    @pytest.mark.parametrize("name", sorted(PARITY_PINS))
    def test_parity_pin(self, name):
        args, n, g, ratios, sums = self.PARITY_PINS[name]
        sigma = pl.uniform_nice(*args) if name == "uniform" else pl.truncated_dh(*args)
        grid = pl.build_quantile_grid(sigma, n)
        stats = pl.ratio_statistics(grid, GFunction(g), 0.1)
        assert [float(v).hex() for v in (stats.a_max, stats.a_max_g,
                                         stats.fraction, stats.fraction_g)] == ratios
        gaps = pl.energy_gap(grid, GFunction(g), 0.0, 0.0)
        assert [gaps.riemann_sum.hex(), gaps.riemann_sum_g.hex()] == sums

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 17])
    def test_blocks_match_full_gather(self, monkeypatch, n):
        # five rows per block: one ragged block (n = 2, 3), exactly one
        # block (5), a one-row remainder (6), three blocks and two rows (17)
        rows = 5
        monkeypatch.setattr(measures, "_PAIR_BLOCK", rows * n)
        rng = np.random.default_rng(n)
        a = np.cumsum(rng.uniform(0.5, 2.0, n + 1))
        gap = np.diff(a)
        grid = pl.QuantileGrid(a=a, c=a[:-1] + gap / 3.0, d=a[1:] - gap / 3.0)
        g = GFunction("log")
        stats = pl.ratio_statistics(grid, g, 0.1)
        assert [stats.a_max, stats.a_max_g, stats.fraction, stats.fraction_g] == \
            full_gather_fields(grid, g, 0.1)


class TestEnergyGap:
    def test_uniform_riemann_sum(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 1000)
        gaps = pl.energy_gap(grid, GFunction("identity"), 0.75, 0.75)
        assert abs(gaps.riemann_sum - 0.75) <= 0.05

    def test_identity_gap_equal(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 300)
        gaps = pl.energy_gap(grid, GFunction("identity"), 0.75, 0.75)
        assert gaps.gap == gaps.gap_g

    def test_gap_shrinks_with_n(self, uniform12):
        g100 = pl.energy_gap(pl.build_quantile_grid(uniform12, 100),
                             GFunction("identity"), 0.75, 0.75)
        g1000 = pl.energy_gap(pl.build_quantile_grid(uniform12, 1000),
                              GFunction("identity"), 0.75, 0.75)
        assert g1000.gap < g100.gap

    def test_truncated_dh_gap_small(self, dh_trunc):
        e_half = 0.5 * pl.nice_energy(dh_trunc, n0=512, tol=1e-5, max_doublings=2)
        e_half_g = 0.5 * pl.nice_energy(dh_trunc, GFunction("log"), n0=512,
                                        tol=1e-5, max_doublings=2)
        grid = pl.build_quantile_grid(dh_trunc, 1000)
        gaps = pl.energy_gap(grid, GFunction("log"), e_half, e_half_g)
        assert abs(gaps.gap) <= 0.05
        assert abs(gaps.gap_g) <= 0.05


class TestConfigurationBl:
    def test_uniform_bound(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 100)
        val = pl.configuration_bl_check(grid, uniform12, m=10_000)
        assert val <= 1.0 / 100 + 2e-4

    def test_refinement(self, uniform12):
        v100 = pl.configuration_bl_check(
            pl.build_quantile_grid(uniform12, 100), uniform12, m=5000)
        v1000 = pl.configuration_bl_check(
            pl.build_quantile_grid(uniform12, 1000), uniform12, m=5000)
        assert v1000 < v100

    def test_any_configuration_in_box(self, uniform12):
        rng = np.random.default_rng(9)
        grid = pl.build_quantile_grid(uniform12, 100)
        bound = uniform12.C / 100 + 2.0 / 5000
        for _ in range(10):
            z = grid.c + (grid.d - grid.c) * rng.random(grid.n)
            val = pl.configuration_bl_check(grid, uniform12, m=5000, z=z)
            assert val <= bound

    def test_rejects_outside_box(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 50)
        z = grid.a[:-1].copy()   # left endpoints sit outside the thirds
        with pytest.raises(ValueError):
            pl.configuration_bl_check(grid, uniform12, z=z)

    def test_rejects_empty_reference(self, uniform12):
        grid = pl.build_quantile_grid(uniform12, 50)
        with pytest.raises(ValueError):
            pl.configuration_bl_check(grid, uniform12, m=0)


class TestNiceEnergy:
    def test_uniform_matches_analytic(self, uniform12):
        assert pl.nice_energy(uniform12) == pytest.approx(
            uniform12.analytic_energy, abs=1e-9)

    def test_pushforward_energy_identity_g(self, uniform12):
        plain = pl.nice_energy(uniform12)
        pushed = pl.nice_energy(uniform12, GFunction("identity"))
        assert plain == pytest.approx(pushed, abs=1e-12)

    def test_unmet_tol_raises(self, dh_trunc):
        with pytest.raises(RuntimeError):
            pl.nice_energy(dh_trunc, tol=1e-30, max_doublings=1)
        # nothing to compare: one resolution, returned unchecked
        assert np.isfinite(pl.nice_energy(dh_trunc, tol=1e-30, max_doublings=0))

    def test_uniform_constructor_validation(self):
        with pytest.raises(ValueError):
            pl.uniform_nice(2.0, 1.0)
        with pytest.raises(ValueError):
            pl.truncated_dh(-0.1)


def test_box_mass_log_rate_decays(uniform12):
    # only the trend is specified: the normalized log box mass must vanish
    vals = [abs(pl.box_mass_log_rate(pl.build_quantile_grid(uniform12, n)))
            for n in (50, 200, 800)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.02


@pytest.mark.filterwarnings("error")        # a numpy warning fails the test
@pytest.mark.parametrize("a,n", [(1.0, 50), (1.0, 1000), (1000.0, 50)])
def test_box_mass_log_rate_exact(a, n):
    # uniform on [a, a + 1]: each central third has width 1/(3n), so the
    # log box mass is -sum(c_k) + n log(1 - e^(-1/(3n))); at a = 1000,
    # e^-c underflows and the rate must still be finite
    grid = pl.build_quantile_grid(pl.uniform_nice(a, a + 1.0), n)
    ref = (-np.sum(grid.c) + n * np.log(-np.expm1(-1.0 / (3.0 * n)))) / n ** 2
    assert pl.box_mass_log_rate(grid) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("lo", [1e-20, 2.8e-15])
def test_truncated_dh_floor_in_the_edge_zone_raises(lo):
    # hi = e - lo lies where the density is taken as its edge value 0
    with pytest.raises(ValueError, match="2.9e-15"):
        pl.truncated_dh(lo)
    assert np.isfinite(pl.truncated_dh(3e-15).C)


def test_truncated_dh_one_cut_solve(monkeypatch):
    # F and f at both ends come from one delta per end, one batched solve
    calls = []
    solve = dh_law.special.cut_delta
    monkeypatch.setattr(dh_law.special, "cut_delta",
                        lambda tau: calls.append(tau.size) or solve(tau))
    pl.truncated_dh(0.1)
    assert calls == [2]


def test_truncated_dh_density_bounds(dh_trunc):
    xs = np.linspace(dh_trunc.a, dh_trunc.b, 500)
    dens = dh_trunc.density(xs)
    assert np.all(dens <= dh_trunc.C + 1e-12)
    assert np.all(dens >= 1.0 / dh_trunc.C - 1e-12)
    q = dh_trunc.quantile(np.array([0.0, 0.5, 1.0]))
    assert q[0] == pytest.approx(dh_trunc.a, abs=1e-8)
    assert q[-1] == pytest.approx(dh_trunc.b, abs=1e-8)
    assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize("lo", [0.05, 0.1, 0.3])
def test_truncated_dh_bound_from_endpoints(lo):
    # the DH density decreases on (0, e), so the two end values give C
    sigma = pl.truncated_dh(lo)
    dens = sigma.density(np.linspace(lo, np.e - lo, 2001))
    assert sigma.C == max(float(dens.max()), 1.0 / float(dens.min()), 1.0)
    assert np.all(np.diff(dh_law.dh_density(np.linspace(0.0, np.e, 100_001)[1:-1])) <= 0)
