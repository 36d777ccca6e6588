"""Dykema-Haagerup law: density, CDF/quantile, moments, transforms.

The implementation evaluates the CDF in closed form on the trigonometric
parametrization of the cut branch.  The CDF tests check it against
scipy.integrate.quad of the density over three smooth charts (t = -log x,
x and s = sqrt(e - x)), which shares only the density evaluator with it.
The density tests use the parametrization itself, solved here by
bisection: with w = -v*cot(v) + i*v, the point x(v) = sin(v) *
exp(v*cot(v)) / v sweeps (0, e) as v runs down from pi to 0, and the
density there is sin(v)^2 / (pi * v * x).
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from biortho import dh_law, special


def oracle_v(x):
    """Invert x(v) = sin(v) exp(v cot v)/v by bisection (x decreasing in v)."""
    lo, hi = 1e-12, np.pi - 1e-9
    for _ in range(200):
        v = 0.5 * (lo + hi)
        xv = np.sin(v) * np.exp(v * np.cos(v) / np.sin(v)) / v
        if xv > x:
            lo = v
        else:
            hi = v
    return 0.5 * (lo + hi)


def density_in_t(t):
    """density(x) * x at x = exp(-t): bounded where the density overflows."""
    w = special.lambert_w0_cut_above_log(np.atleast_1d(t))[0]
    return np.exp(w.real - t) * np.sin(w.imag) / np.pi


def quad_cdf(x):
    """Integral of the density from 0 to x, chart by chart, each to 1e-14."""
    def quad(fn, lo, hi):
        return scipy.integrate.quad(fn, lo, hi, limit=400, epsabs=1e-14,
                                    epsrel=1e-14)[0]

    total = quad(density_in_t, -np.log(min(x, 0.1)), np.inf)
    if x > 0.1:
        total += quad(dh_law.dh_density, 0.1, min(x, 2.0))
    if x > 2.0:
        total += quad(lambda s: dh_law.dh_density(np.e - s * s) * 2.0 * s,
                      np.sqrt(np.e - x), np.sqrt(np.e - 2.0))
    return total


# quantile hex values at levels from the subnormal range to 1 - 1e-15; the
# first two saturate at the smallest double
QUANTILE_PINS = [
    (1e-310, "0x0.0000000000001p-1022"),
    (0.00135, "0x0.0000000000001p-1022"),
    (0.0014, "0x0.0000415620022p-1022"),
    (0.002, "0x1.9ec4827d4d61bp-731"),
    (0.01, "0x1.18ccfe3f90e0bp-151"),
    (0.03925, "0x1.ae09ffdad52eep-42"),
    (0.1, "0x1.9616063ef920ap-18"),
    (0.25, "0x1.152e9256b88d5p-7"),
    (0.5, "0x1.8339cf50ef01ap-3"),
    (0.9, "0x1.8cc7bc8ce5c01p+0"),
    (0.999, "0x1.5436e50ed8e8cp+1"),
    (1.0 - 1e-9, "0x1.5bf075d25aed1p+1"),
    (1.0 - 1e-12, "0x1.5bf0a82f0b465p+1"),
    (1.0 - 1e-15, "0x1.5bf0a8aff8408p+1"),
]


@pytest.fixture(scope="module")
def law():
    return dh_law.DHLaw()


class TestDensity:
    def test_support_edges(self):
        assert dh_law.dh_density(np.e) == 0.0
        assert dh_law.dh_density(3.0) == 0.0
        assert dh_law.dh_density(0.0) == 0.0
        assert dh_law.dh_density(-1.0) == 0.0

    def test_value_at_one_vs_independent_root_solve(self):
        # (1/pi) Im exp(w) where w solves w e^w = -1 in the upper strip,
        # via scipy's Lambert W (independent implementation)
        w = scipy.special.lambertw(-1.0 + 0j)
        expected = float(np.imag(np.exp(w)) / np.pi)
        assert abs(expected - 0.2253) < 1e-3
        assert abs(dh_law.dh_density(1.0) - expected) < 1e-12

    def test_positive_inside(self):
        x = np.linspace(1e-6, np.e - 1e-9, 1000)
        d = dh_law.dh_density(x)
        assert np.all(d > 0)

    def test_nan_in_nan_out(self):
        assert np.isnan(dh_law.dh_density(np.nan))
        d = dh_law.dh_density(np.array([np.nan, 1.0, -np.inf, np.inf]))
        assert np.isnan(d[0]) and d[1] > 0 and d[2] == 0.0 and d[3] == 0.0

    def test_parametrization_oracle(self):
        for x in (0.01, 0.3, 1.7, 2.5):
            v = oracle_v(x)
            expected = np.sin(v) ** 2 / (np.pi * v * x)
            assert abs(dh_law.dh_density(x) - expected) < 1e-10


class TestCdfQuantile:
    def test_edges(self, law):
        assert law.cdf(0.0) == 0.0
        assert abs(law.cdf(np.e) - 1.0) <= 1e-8
        assert abs(law.cdf(5.0) - 1.0) <= 1e-8

    def test_monotone(self, law):
        x = np.linspace(0.0, np.e, 400)
        c = law.cdf(x)
        assert np.all(np.diff(c) >= 0)

    def test_monotone_on_dense_sorted_sample(self, law):
        # ulp-adjacent points may swap (ROADMAP), points this far apart not
        x = np.sort(np.random.default_rng(16).uniform(0.0, np.e, 100_000))
        assert np.all(np.diff(law.cdf(x)) >= 0)

    def test_cdf_nan_in_nan_out(self, law):
        assert np.isnan(law.cdf(np.nan))
        c = law.cdf(np.array([-1.0, np.nan, 1.0, 3.0]))
        assert c[0] == 0.0 and np.isnan(c[1]) and 0 < c[2] < 1 and c[3] == 1.0

    def test_closed_form_oracle(self, law):
        # the closed form has total mass 1; the oracle's charts meet their
        # 1e-14 tolerances, so 1e-13 leaves room for rounding in the sum
        for x in (0.001, 0.05, 0.4, 1.0, 2.0, 2.6):
            assert abs(law.cdf(x) - quad_cdf(x)) <= 1e-13

    def test_quantile_roundtrip(self, law):
        for p in (0.1, 0.5, 0.9, 1.0 - 1e-12):
            q = law.quantile(p)
            assert 0.0 < q < np.e
            assert abs(law.cdf(q) - p) <= 1e-8

    def test_quantile_monotone_and_inside(self, law):
        p = np.linspace(0.01, 0.99, 100)
        q = law.quantile(p)
        assert np.all(np.diff(q) > 0)
        assert q[0] > 0.0 and q[-1] < np.e
        assert law.quantile(0.999) < np.e

    def test_quantile_domain(self, law):
        for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
            with pytest.raises(ValueError):
                law.quantile(bad)

    @pytest.mark.filterwarnings("error")        # a frozen level must not warn
    def test_quantile_batch_invariant(self, law):
        # subnormal delta (stopped by its residual), saturated, region A,
        # middle, edge and beyond-total-mass levels
        p = np.array([1e-310, 1e-4, 1.35e-3, 2e-3, 0.03925, 0.1, 0.5, 0.9, 0.999,
                      1.0 - 1e-9, 1.0 - 1e-12])
        q = law.quantile(p)
        assert all(q[k] == law.quantile(pk) for k, pk in enumerate(p))

    def test_quantile_newton_below_1e_305(self, law, monkeypatch):
        # the quantile of 1.4e-3 is subnormal; within 10 steps only Newton,
        # not bisection, can find it
        monkeypatch.setattr(dh_law, "_QUANTILE_MAX_ITER", 10)
        q = law.quantile(1.4e-3)
        assert 0.0 < q < 1e-305
        assert abs(law.cdf(q) - 1.4e-3) <= 1e-8

    def test_quantile_iteration_cap_raises(self, law, monkeypatch):
        monkeypatch.setattr(dh_law, "_QUANTILE_MAX_ITER", 1)
        with pytest.raises(RuntimeError):
            law.quantile(np.array([0.1, 0.5]))

    @pytest.mark.parametrize("p,hexval", QUANTILE_PINS)
    def test_quantile_pin(self, law, p, hexval):
        # the scalar call and the batch of all pinned levels both match
        assert float(law.quantile(p)).hex() == hexval
        levels = np.array([pk for pk, _ in QUANTILE_PINS])
        k = [pk for pk, _ in QUANTILE_PINS].index(p)
        assert float(law.quantile(levels)[k]).hex() == hexval

    def test_cdf_small_x_closed_form_oracle(self, law):
        # x(delta) below 1e-3, where the mass piles up: the CDF reads delta
        # from the cut solve directly, so it meets F(delta) to a few ulps
        # (reading it back as pi - Im w would lose up to ~300)
        d = np.geomspace(0.005, 0.5, 400)
        f = dh_law._cdf_delta(d)
        c = law.cdf(np.exp(dh_law._log_x(d)))
        assert np.all(np.abs(c - f) <= 4.0 * np.spacing(f))


class TestMoments:
    @pytest.mark.parametrize("k,expected", [
        (0, 1.0), (1, 0.5), (2, 2.0 / 3.0), (3, 1.125),
        (4, 32.0 / 15.0), (5, 3125.0 / 720.0), (6, 46656.0 / 5040.0),
    ])
    def test_exact_formula(self, k, expected):
        assert abs(dh_law.dh_moment_exact(k) - expected) < 1e-15

    def test_exact_domain(self):
        with pytest.raises(ValueError):
            dh_law.dh_moment_exact(-1)

    def test_numeric_matches_exact(self, law):
        for k in range(7):
            exact = dh_law.dh_moment_exact(k)
            numeric = law.moment_numeric(k)
            assert abs(numeric - exact) <= 1e-6 * max(1.0, exact)

    def test_numeric_examples(self, law):
        assert abs(law.moment_numeric(1) - 0.5) <= 1e-6
        assert abs(law.moment_numeric(6) - 46656.0 / 5040.0) <= 1e-4

    def test_numeric_cap(self, law):
        with pytest.raises(ValueError):
            law.moment_numeric(13)

    def test_rule_built_on_first_moment(self):
        # the CDF and quantile never need the Gauss-Legendre rule
        fresh = dh_law.DHLaw()
        fresh.cdf(1.0), fresh.quantile(0.5)
        assert "_moment_rule" not in vars(fresh)
        assert fresh.moment_numeric(3) == dh_law.DHLaw().moment_numeric(3)
        assert "_moment_rule" in vars(fresh)


class TestStieltjes:
    def test_total_mass_asymptotics(self):
        z = 1e6j
        assert abs(dh_law.dh_stieltjes(z) - (-1.0 / z)) <= 1e-5

    @pytest.mark.parametrize("r", [1e8, 1e12, 1e16, 1e100])
    def test_large_modulus_relative_error(self, r):
        # S(z) = -1/z - 1/(2z^2) - 2/(3z^3) + O(z^-4) from the first two
        # moments; -1 + exp(W0(-1/z)) lost 2.2e-5 relative at 1e12 + i
        z = complex(r, 1.0)
        ref = -1.0 / z - 1.0 / (2.0 * z * z) - 2.0 / (3.0 * z ** 3)
        assert abs(dh_law.dh_stieltjes(z) - ref) <= 2e-16 * abs(ref)

    def test_quadrature_oracle_at_i(self):
        # direct integral of d(mu)/(x - i) over the three smooth charts,
        # sharing only the density evaluator with the closed form under test
        z = 1j

        def in_t(t):
            with np.errstate(under="ignore"):
                x = np.exp(-t)
            return density_in_t(t) / (x - z)

        def in_x(x):
            return dh_law.dh_density(x) / (x - z)

        def in_s(s):
            x = np.e - s * s
            return dh_law.dh_density(x) * 2.0 * s / (x - z)

        total = 0j
        for fn, lo, hi in ((in_t, np.log(10.0), np.inf),
                           (in_x, 0.1, 2.0),
                           (in_s, 0.0, np.sqrt(np.e - 2.0))):
            re = scipy.integrate.quad(lambda u: fn(u).real, lo, hi, limit=400)[0]
            im = scipy.integrate.quad(lambda u: fn(u).imag, lo, hi, limit=400)[0]
            total += re + 1j * im
        assert abs(dh_law.dh_stieltjes(z) - total) <= 1e-6

    def test_boundary_inversion(self):
        x = np.linspace(0.1, np.e - 0.1, 50)
        s = dh_law.dh_stieltjes(x + 1e-6j)
        recovered = s.imag / np.pi
        assert np.max(np.abs(recovered - dh_law.dh_density(x))) <= 1e-3

    def test_domain(self):
        for z in (1.0 + 0j, 1.0 - 1j):
            with pytest.raises(ValueError):
                dh_law.dh_stieltjes(z)


class TestRTransform:
    def test_limit_at_zero_is_first_moment(self):
        # series oracle: the limit must equal moment 1 = 1/2
        for z in (1e-5, 1e-7, 1e-5j):
            assert abs(dh_law.dh_r_transform(z) - 0.5) < 1e-4
        assert abs(dh_law.dh_r_transform(1e-8) - dh_law.dh_moment_exact(1)) < 1e-7

    def test_hand_value_at_half(self):
        expected = 2.0 / np.log(2.0) - 2.0
        assert abs(dh_law.dh_r_transform(0.5) - expected) < 1e-14

    def test_real_in_real_out(self):
        for z in (0.1, 0.5, 0.9, -0.5):
            val = dh_law.dh_r_transform(z)
            assert isinstance(val, float)

    def test_complex_in_complex_out(self):
        # the input's dtype alone sets the return type, zero imaginary part or not
        assert isinstance(dh_law.dh_r_transform(0.5 + 0j), complex)
        assert dh_law.dh_r_transform(0.5 + 0j).real == dh_law.dh_r_transform(0.5)
        batch = dh_law.dh_r_transform(np.array([0.1, 0.5]) + 0j)
        assert batch.dtype == complex
        assert np.array_equal(batch.real, dh_law.dh_r_transform(np.array([0.1, 0.5])))

    def test_series_formula_crossover(self):
        # the series region must agree with direct evaluation where both work
        for z in (9e-4, 2e-3, 9e-4 * 1j):
            direct = -1.0 / ((1.0 - z) * np.log(1.0 - z)) - 1.0 / z
            assert abs(dh_law.dh_r_transform(z) - direct) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            dh_law.dh_r_transform(0.0)
        with pytest.raises(ValueError):
            dh_law.dh_r_transform(1.0)
        with pytest.raises(ValueError):
            dh_law.dh_r_transform(1.2j)


def test_law_invariants(law):
    assert law.total_mass == 1.0
    assert law.cdf(np.e) == 1.0
    x = np.linspace(0.0, np.e, 257)
    c = law.cdf(x)
    assert np.all(np.diff(c) >= 0)
