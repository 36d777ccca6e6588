"""Lambert W: oracle values, residual contracts, branch selection."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from biortho import special

EPS = np.finfo(float).eps


def bisect_real_w(x, lo, hi, iters=200):
    """Independent oracle: plain bisection on w*exp(w) = x."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_complex_w(z, w, iters=100):
    """Independent oracle: plain Newton iteration on w*exp(w) = z."""
    for _ in range(iters):
        f = w * np.exp(w) - z
        w = w - f / (np.exp(w) * (1.0 + w))
    return w


class TestReal:
    def test_fixed_points(self):
        assert special.lambert_w0_real(0.0) == 0.0
        assert abs(special.lambert_w0_real(np.e) - 1.0) < 1e-15

    def test_branch_point(self):
        assert special.lambert_w0_real(special.BRANCH_POINT) == -1.0

    def test_bisection_oracle_at_one(self):
        oracle = bisect_real_w(1.0, 0.0, 1.0)
        assert abs(oracle - 0.5671432904097838) < 1e-13   # frozen from oracle
        assert abs(special.lambert_w0_real(1.0) - oracle) < 1e-14

    def test_domain_error(self):
        for bad in (special.BRANCH_POINT - 1e-9, np.nan, np.inf,
                    np.array([1.0, np.nan])):
            with pytest.raises(ValueError):
                special.lambert_w0_real(bad)

    def test_residuals(self):
        x = np.concatenate([np.linspace(special.BRANCH_POINT, 10.0, 2000),
                            np.geomspace(10.0, 1e10, 1000)])
        w = special.lambert_w0_real(x)
        res = np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))
        assert res.max() <= 1e-12

    def test_near_branch_point(self):
        # 1 + w is small here, and rounding in the residual can keep the
        # Halley step cycling just above its tolerance
        x = special.BRANCH_POINT + np.geomspace(1e-16, 1e-2, 400)
        w = special.lambert_w0_real(x)
        assert np.max(np.abs(w * np.exp(w) - x)) <= 1e-12

    def test_monotone(self):
        x = np.unique(np.concatenate([
            np.linspace(special.BRANCH_POINT, 5.0, 5000),
            np.geomspace(5.001, 1e8, 2000)]))
        w = special.lambert_w0_real(x)
        assert np.all(np.diff(w) > 0)

    def test_is_complex_solve_real_part(self):
        # one solve off the cut: on criterion 2's real grid the real branch
        # is bit-equal to the complex branch's real part, whose imaginary
        # part is +0.0 there
        x = np.concatenate([np.linspace(special.BRANCH_POINT, 20.0, 1667),
                            np.geomspace(20.0, 1e8, 1667)])
        wc = special.lambert_w0_complex(x)
        assert np.array_equal(special.lambert_w0_real(x), wc.real)
        assert np.all(wc.imag == 0.0) and not np.signbit(wc.imag).any()

    def test_scalar_and_array(self):
        assert isinstance(special.lambert_w0_real(1.0), float)
        assert special.lambert_w0_real(np.array([1.0, 2.0])).shape == (2,)


def taylor_w(z, terms=8):
    """W0 near 0 from its series sum (-k)^(k-1) z^k / k!, summed exactly in
    rationals with z split into real and imaginary parts, then rounded."""
    re, im = Fraction(z.real), Fraction(z.imag)
    pre, pim, sre, sim = Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    for k in range(1, terms + 1):
        pre, pim = pre * re - pim * im, pre * im + pim * re
        c = Fraction((-k) ** (k - 1), math.factorial(k))
        sre, sim = sre + c * pre, sim + c * pim
    return complex(float(sre), float(sim))


class TestSmallArgument:
    # |z| < 2^-20 takes the series z - z^2 + 3z^3/2; Halley's step test,
    # absolute once |w| << 1, used to stop there on a relatively wrong w
    @pytest.mark.parametrize("x", [1e-8, -1e-8, 1e-20, -1e-20, 1e-50, -1e-50,
                                   1e-300, 2.0 ** -20 * 0.999])
    def test_real_to_two_ulp(self, x):
        ref = taylor_w(complex(x)).real
        assert abs(special.lambert_w0_real(x) - ref) <= 2 * EPS * abs(ref)

    @pytest.mark.parametrize("z", [-1e-50 + 1e-100j, 1e-20 + 1e-20j,
                                   -3e-9 + 2e-12j, 5e-7 - 4e-7j])
    def test_complex_to_two_ulp(self, z):
        ref = taylor_w(z)
        w = special.lambert_w0_complex(z)
        assert abs(w.real - ref.real) <= 2 * EPS * abs(ref.real)
        assert abs(w.imag - ref.imag) <= 2 * EPS * abs(ref.imag)

    def test_zero_stays_exact(self):
        assert special.lambert_w0_real(0.0) == 0.0
        assert special.lambert_w0_complex(0j) == 0j


class TestComplex:
    def test_zero_and_branch_point(self):
        assert special.lambert_w0_complex(0j) == 0j
        assert abs(special.lambert_w0_complex(special.BRANCH_POINT + 0j) + 1.0) < 1e-12

    def test_newton_oracle_at_i(self):
        oracle = newton_complex_w(1j, 1j)
        assert abs(oracle - (0.3746990207371175 + 0.5764127230314353j)) < 1e-12
        assert abs(special.lambert_w0_complex(1j) - oracle) < 1e-6

    def test_open_cut_rejected(self):
        with pytest.raises(ValueError):
            special.lambert_w0_complex(-1.0 + 0j)

    def test_non_finite_is_domain_error(self):
        for bad in (np.nan + 1j, complex(0.0, np.nan), complex(np.inf, 1.0)):
            with pytest.raises(ValueError):
                special.lambert_w0_complex(bad)

    def test_upper_half_plane_strip(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-30, 30, 2000) + 1j * np.exp(rng.uniform(-14, 4, 2000))
        w = special.lambert_w0_complex(z)
        assert np.all((w.imag > 0) & (w.imag < np.pi))
        res = np.abs(w * np.exp(w) - z) / np.maximum(1.0, np.abs(z))
        assert res.max() <= 1e-12

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=300) + 1j * np.abs(rng.normal(size=300))
        ours = special.lambert_w0_complex(z)
        theirs = scipy.special.lambertw(z)
        assert np.max(np.abs(ours - theirs)) < 1e-10

    @pytest.mark.filterwarnings("error")        # a frozen point must not warn
    def test_huge_modulus_matches_scipy(self):
        # the Halley residual w - z*exp(-w) stays finite up to the largest
        # double, where w*exp(w) - z would overflow, so one solve serves both
        # ranges; the worst relative deviation measures 1.8e-16.  Each point
        # stops on its own, so a batch equals its single-point calls
        for lo, hi in [(1e250, 1e290), (1e290, 1.7e308)]:
            r = np.geomspace(lo, hi, 200)
            z = (r[:, None] * np.exp(1j * np.pi * np.linspace(-0.75, 1.0, 8))).ravel()
            w = special.lambert_w0_complex(z)
            assert np.max(np.abs(w - scipy.special.lambertw(z)) / np.abs(w)) <= 1e-15
            assert all(w[k] == special.lambert_w0_complex(zk) for k, zk in enumerate(z))
            w = special.lambert_w0_real(r)
            assert np.max(np.abs(w - scipy.special.lambertw(r).real) / w) <= 1e-15
            assert all(w[k] == special.lambert_w0_real(x) for k, x in enumerate(r))

    def test_off_branch_result_raises(self, monkeypatch):
        # a Halley solve that lands on the conjugate root is reported,
        # not repaired
        halley = special._halley
        monkeypatch.setattr(special, "_halley",
                            lambda w0, z: np.conj(halley(w0, z)))
        with pytest.raises(special.LambertWError):
            special.lambert_w0_complex(np.array([-1.0 + 0.5j, 2.0 + 1.0j]))


class TestCutAbove:
    def test_root_solve_oracle_at_minus_one(self):
        # root of w*exp(w) = -1 with Im in (0, pi), frozen from a Newton
        # solve started inside the strip and cross-checked against scipy
        oracle = newton_complex_w(-1.0 + 0j, -0.3 + 1.3j)
        assert oracle.imag > 0
        assert abs(oracle - (-0.31813150520476413 + 1.3372357014306895j)) < 1e-12
        w = special.lambert_w0_cut_above(-1.0)
        assert abs(w - oracle) < 1e-6
        assert abs(w - scipy.special.lambertw(-1.0 + 0j)) < 1e-9

    def test_branch_point_continuity(self):
        w = special.lambert_w0_cut_above(special.BRANCH_POINT - 1e-13)
        assert abs(w + 1.0) < 1e-6
        assert w.imag > 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.lambert_w0_cut_above(special.BRANCH_POINT)
        with pytest.raises(ValueError):
            special.lambert_w0_cut_above(-0.1)
        with pytest.raises(ValueError):
            special.lambert_w0_cut_above(np.nan)
        with pytest.raises(ValueError):
            special.lambert_w0_cut_above_log(np.array([0.5, np.nan]))

    def test_continuity_from_above(self):
        # boundary value agrees with the complex branch just above the cut
        for x in (-0.5, -1.0, -4.0, -25.0):
            w_cut = special.lambert_w0_cut_above(x)
            for eps in (1e-6, 1e-8):
                w_eps = special.lambert_w0_complex(x + 1j * eps)
                assert abs(w_cut - w_eps) <= 10 * eps

    def test_wide_residuals_and_strip(self):
        x = -np.geomspace(1.0 / np.e + 1e-10, 1e12, 4000)
        w = special.lambert_w0_cut_above(x)
        assert np.all((w.imag > 0) & (w.imag < np.pi))
        res = np.abs(w * np.exp(w) - x) / np.abs(x)
        assert res.max() <= 1e-12

    def test_deep_log_form(self):
        # far beyond float overflow of |x|: tau = log|x| up to 1e9; the
        # real part must track tau - log(tau) and the residual identity
        # log|w| + Re(w) = tau must hold
        tau = np.array([1e3, 1e6, 1e9])
        w = special.lambert_w0_cut_above_log(tau)
        assert np.all((w.imag > 0) & (w.imag < np.pi))
        ident = np.log(np.abs(w)) + w.real - tau
        assert np.max(np.abs(ident) / tau) < 1e-12

    @pytest.mark.filterwarnings("error")        # a frozen point must not warn
    def test_log_form_batch_invariant(self):
        tau = np.concatenate([-1.0 + np.geomspace(1e-15, 1.0, 40),
                              np.linspace(0.0, 40.0, 40), np.geomspace(40.0, 1e12, 40)])
        w = special.lambert_w0_cut_above_log(tau)
        assert all(w[k] == special.lambert_w0_cut_above_log(t)[0]
                   for k, t in enumerate(tau))

    def test_equals_log_form_exactly(self):
        # one algorithm on the cut: the x form is the tau form at log(-x),
        # bit for bit, on the acceptance criterion's cut grid
        x = -np.geomspace(1.0 / np.e + 1e-12, 1e8, 3334)
        w = special.lambert_w0_cut_above(x)
        assert np.array_equal(w, special.lambert_w0_cut_above_log(np.log(-x)))

    def test_log_form_is_built_from_cut_delta(self):
        # w = (pi - delta) cot(delta) + i (pi - delta), delta = cut_delta(tau)
        tau = np.concatenate([-1.0 + np.geomspace(1e-15, 1.0, 200),
                              np.linspace(0.0, 40.0, 200), np.geomspace(40.0, 1e12, 200)])
        d = special.cut_delta(tau)
        w = special.lambert_w0_cut_above_log(tau)
        assert np.all((d > 0.0) & (d < np.pi))
        assert np.array_equal(w.imag, np.pi - d)
        assert np.array_equal(w.real, (np.pi - d) / np.tan(d))

    def test_bracketed_delta_falls_back_to_the_midpoint(self):
        # a step that leaves the bracket is replaced by its midpoint; the
        # root of delta - 0.3 is then met by bisection alone
        def away(d):
            return d < 0.3, np.full(d.shape, 10.0), np.zeros(d.shape, dtype=bool)
        d = special.bracketed_delta(away, np.array([0.1]), np.array([0.0]),
                                    np.array([1.0]), 100)
        assert abs(d[0] - 0.3) <= 1e-15
        assert special.bracketed_delta(away, np.array([0.1]), np.array([0.0]),
                                       np.array([1.0]), 3) is None

    def test_matches_scipy_on_wide_cut(self):
        # the first point is left out: conditioning near the branch point
        # limits both values there.  The worst relative deviation measures
        # 9.8e-16; the bound leaves a 2x margin
        x = -np.geomspace(1.0 / np.e + 1e-6, 1e300, 20000)[1:]
        w = special.lambert_w0_cut_above(x)
        ref = scipy.special.lambertw(x + 0j)
        assert np.max(np.abs(w - ref) / np.abs(ref)) <= 2e-15

    def test_four_halley_steps_suffice(self, monkeypatch):
        # the dense sweep behind the _CUT_MAX_ITER comment; Newton needs 6
        monkeypatch.setattr(special, "_CUT_MAX_ITER", 4)
        tau = np.concatenate([-1.0 + np.geomspace(1e-16, 1.0, 100000),
                              np.linspace(0.0, 50.0, 100000),
                              np.geomspace(50.0, 1e12, 100000)])
        w = special.lambert_w0_cut_above_log(tau)
        assert np.all((w.imag > 0) & (w.imag < np.pi))

    def test_quarter_turn(self):
        # tau = log(pi/2) is delta = pi/2, where q = cot(delta) = 0 and tan
        # is at its pole: W(-pi/2) = i*pi/2
        w = special.lambert_w0_cut_above_log(np.log(np.pi / 2.0))[0]
        assert abs(w.real) <= 1e-15
        assert abs(w.imag - np.pi / 2.0) <= 4e-16
        w = special.lambert_w0_cut_above(-np.pi / 2.0)
        assert abs(w * np.exp(w) + np.pi / 2.0) <= 1e-15

    def test_bracket_ends(self):
        # the smallest and largest tau sit nearest the bracket's ends,
        # delta = pi - 1e-13 and delta = 1e-14
        lo, hi = np.nextafter(-1.0, 0.0), 1e12
        w_lo, w_hi = special.lambert_w0_cut_above_log(np.array([lo, hi]))
        assert 1e-13 < w_lo.imag < 1e-6 and abs(w_lo + 1.0) <= 1e-6
        assert np.pi - 1e-11 < w_hi.imag < np.pi - 1e-14
        assert abs(np.log(abs(w_hi)) + w_hi.real - hi) <= 1e-12 * hi

    def test_log_form_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_CUT_MAX_ITER", 1)
        with pytest.raises(special.LambertWError):
            special.lambert_w0_cut_above_log(np.array([0.5, 5.0, 50.0]))


def test_combined_roundtrip_budget():
    # the acceptance-scale sweep: 1e4 points across all three regimes
    rng = np.random.default_rng(11)
    x_real = np.concatenate([np.linspace(special.BRANCH_POINT, 20, 2000),
                             np.geomspace(20, 1e8, 1500)])
    z_up = rng.uniform(-50, 50, 3000) + 1j * np.exp(rng.uniform(-12, 4, 3000))
    x_cut = -np.geomspace(1.0 / np.e + 1e-11, 1e8, 3500)
    w1 = special.lambert_w0_real(x_real)
    w2 = special.lambert_w0_complex(z_up)
    w3 = special.lambert_w0_cut_above(x_cut)
    worst = max(
        np.max(np.abs(w1 * np.exp(w1) - x_real) / np.maximum(1, np.abs(x_real))),
        np.max(np.abs(w2 * np.exp(w2) - z_up) / np.maximum(1, np.abs(z_up))),
        np.max(np.abs(w3 * np.exp(w3) - x_cut) / np.abs(x_cut)),
    )
    assert worst <= 1e-12
