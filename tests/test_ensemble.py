"""Triangular-matrix ensemble: sampler distributions, spectra, invariants."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

from biortho import dh_law, ensemble as en
from biortho.measures import EmpiricalMeasure, w1_distance


def params(n=64, theta=0.0, b=1.0, seed=0):
    return en.EnsembleParams(n=n, theta=theta, b=b, seed=seed)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            en.EnsembleParams(n=0, theta=0.0, b=1.0, seed=0)
        with pytest.raises(ValueError):
            en.EnsembleParams(n=4, theta=-0.5, b=1.0, seed=0)
        with pytest.raises(ValueError):
            en.EnsembleParams(n=4, theta=0.0, b=0.0, seed=0)
        for theta, b in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                en.EnsembleParams(n=4, theta=theta, b=b, seed=0)


class TestSampleTriangular:
    def test_strictly_upper_zero(self):
        t = en.sample_triangular(params(n=30, theta=1.5, b=0.5, seed=9))
        assert np.all(t[np.triu_indices(30, k=1)] == 0.0)

    def test_diag_modulus_squared_exponential(self):
        # change of variables: density e^{-r^2} r^{2(c-1)} in the modulus
        # means modulus^2 ~ Gamma(c); at theta=0, b=1 that is Exp(1)
        draws = []
        for k in range(100):
            t = en.sample_triangular(params(n=100, seed=8), trial=k)
            draws.append(np.abs(np.diag(t)) ** 2)
        draws = np.concatenate(draws)
        stat, _ = kstest(draws, "expon")
        assert draws.size == 10_000
        assert stat < 1.9495 / np.sqrt(draws.size)   # 0.001-level critical value

    def test_diag_gamma_shape_theta(self):
        # j-th diagonal entry has modulus^2 ~ Gamma(theta*(j-1) + b)
        theta, b, j = 1.0, 1.0, 50
        draws = np.array([
            np.abs(en.sample_triangular(params(n=64, theta=theta, b=b, seed=17),
                                        trial=k)[j, j]) ** 2
            for k in range(4000)])
        stat, _ = kstest(draws, "gamma", args=(theta * j + b,))
        assert stat < 1.9495 / np.sqrt(draws.size)

    def test_trace_mean(self):
        # E tr(T T*) = n(n-1)(1+theta)/2 + b n, summing entry variances
        n, theta, b = 64, 2.0, 0.5
        traces = []
        for k in range(100):
            t = en.sample_triangular(params(n=n, theta=theta, b=b, seed=4), trial=k)
            traces.append(np.sum(np.abs(t) ** 2))
        traces = np.asarray(traces)
        expected = n * (n - 1) * (1 + theta) / 2 + b * n
        se = traces.std(ddof=1) / np.sqrt(len(traces))
        assert abs(traces.mean() - expected) <= 3 * se

    def test_deterministic(self):
        a = en.sample_triangular(params(seed=123), trial=7)
        b = en.sample_triangular(params(seed=123), trial=7)
        assert np.array_equal(a, b)
        c = en.sample_triangular(params(seed=123), trial=8)
        assert not np.array_equal(a, c)


class TestSampleSpectrum:
    def test_n_equals_one_is_exponential(self):
        draws = np.array([
            en.sample_spectrum(params(n=1, seed=5), trial=k).points[0]
            for k in range(3000)])
        stat, _ = kstest(draws, "expon")
        assert stat < 1.9495 / np.sqrt(draws.size)

    def test_all_nonnegative_and_sorted(self):
        s = en.sample_spectrum(params(n=128, theta=0.5, b=2.0, seed=6))
        assert np.all(s.points >= 0)
        assert np.all(np.diff(s.points) >= 0)

    def test_trace_identity(self):
        p = params(n=96, theta=0.5, b=2.0, seed=1)
        t = en.sample_triangular(p, trial=3)
        lam = en.sample_spectrum(p, trial=3).points * p.n
        tr = np.sum(np.abs(t) ** 2)
        assert abs(lam.sum() - tr) <= 1e-9 * (1 + tr)

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_determinant_identity_theta1(self, n):
        # |det T| = prod |T_jj| = prod sigma_i, so the defect
        # d = sum log sigma_i - sum log |T_jj| (nats) is 0 to rounding when
        # every singular value is right: measured |d| <= 4.6e-13 at theta = 1.
        # At theta = 0 the SVD's floor leaves d at 25-29 (n = 128) and
        # 396-422 (n = 512); that is not gated here
        p = params(n=n, theta=1.0, b=1.0, seed=11)
        for trial in range(3):
            t = en.sample_triangular(p, trial)
            log_sigma = 0.5 * np.log(n * en.sample_spectrum(p, trial).points)
            d = log_sigma.sum() - np.log(np.abs(np.diag(t))).sum()
            assert abs(d) <= 1e-9

    def test_reproducible(self):
        a = en.sample_spectrum(params(seed=44), trial=2).points
        b = en.sample_spectrum(params(seed=44), trial=2).points
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("theta,b", [(0.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
    def test_first_moment_scaling(self, theta, b):
        n, trials = 128, 100
        p = params(n=n, theta=theta, b=b, seed=3)
        m1 = np.array([en.sample_spectrum(p, k).points.mean()
                       for k in range(trials)])
        expected = ((1 + theta) * (n - 1) / 2 + b) / n
        se = m1.std(ddof=1) / np.sqrt(trials)
        assert abs(m1.mean() - expected) <= 3 * se

    def test_exact_first_moment_theta1(self):
        # E tr(TT*) = n(n-1)/2 + sum c_j = n^2 at theta = 1, b = 1, so the
        # mean particle of S/n has expectation exactly 1 at every n.  Off
        # by one in c_j (theta*j + b) shifts it by 1/n, z = +12.7 here; over
        # 330 seeds the exact sampler read |z| <= 3.55.
        p = params(n=32, theta=1.0, b=1.0, seed=1)
        means = np.array([en.sample_spectrum(p, k).points.mean() for k in range(200)])
        z = (means.mean() - 1.0) / (means.std(ddof=1) / np.sqrt(means.size))
        assert abs(z) <= 4.0

    @staticmethod
    def exact_second_moment(n, theta, b):
        """E tr(S^2)/n for S = TT*/n, exactly, from the entry moments:
        E|z|^2 = 1, E|z|^4 = 2 below the diagonal and c_j, c_j (c_j + 1) on
        it.  With m2, m4 those moments of T_ij,
        E tr((TT*)^2) = sum_i [sum_j m4_ij + sum_{j != j'} m2_ij m2_ij']
                        + sum_{i != k} sum_{j <= min(i, k)} m2_ij m2_kj,
        since distinct entries are independent with uniform phase."""
        c = [Fraction(theta) * j + Fraction(b) for j in range(n)]
        m2 = [[c[j] if i == j else 1 for j in range(i + 1)] for i in range(n)]
        m4 = [[c[j] * (c[j] + 1) if i == j else 2 for j in range(i + 1)] for i in range(n)]
        total = Fraction(0)
        for i in range(n):
            total += sum(m4[i]) + sum(m2[i]) ** 2 - sum(v * v for v in m2[i])
            for k in range(n):
                if k != i:
                    total += sum(u * v for u, v in zip(m2[i], m2[k]))
        return total / n ** 3

    @pytest.mark.parametrize("theta, exact", [(1, 2), (2, Fraction(63, 16))])
    def test_exact_second_moment(self, theta, exact):
        # 2 is the LUE value at theta = 1, and 63/16 = 3.9375 at theta = 2;
        # 50 pooled n = 32 spectra at seed 5 read z = +0.58 and +0.38
        assert self.exact_second_moment(32, theta, 1) == exact
        p = params(n=32, theta=float(theta), b=1.0, seed=5)
        m2 = np.array([np.mean(en.sample_spectrum(p, k).points ** 2) for k in range(50)])
        z = (m2.mean() - float(exact)) / (m2.std(ddof=1) / np.sqrt(m2.size))
        assert abs(z) <= 3.0

    def test_second_moment_near_dh(self):
        p = params(n=128, seed=12)
        m2 = np.mean([np.mean(en.sample_spectrum(p, k).points ** 2)
                      for k in range(30)])
        assert abs(m2 - 2.0 / 3.0) / (2.0 / 3.0) <= 0.05


class TestLargestParticle:
    def test_trivial(self):
        assert en.largest_particle(EmpiricalMeasure([0.1, 0.5, 0.3])) == 0.5
        assert en.largest_particle(EmpiricalMeasure([0.7])) == 0.7

    def test_empty(self):
        with pytest.raises(ValueError):
            en.largest_particle(EmpiricalMeasure([]))

    def test_near_e_at_moderate_n(self):
        p = params(n=256, seed=15)
        xs = [en.largest_particle(en.sample_spectrum(p, k)) for k in range(10)]
        assert np.e - 0.35 <= np.median(xs) <= np.e + 0.2


def test_weak_convergence_to_dh():
    law = dh_law.DHLaw()
    target = EmpiricalMeasure(law.quantile((np.arange(2000) + 0.5) / 2000))
    medians = []
    for n in (64, 128, 256, 512):
        p = params(n=n, seed=7)
        w1s = [w1_distance(en.sample_spectrum(p, k), target) for k in range(9)]
        medians.append(np.median(w1s))
    assert all(medians[k + 1] < medians[k] for k in range(3))


def test_sample_spectra_matches_per_trial():
    p = params(n=48, seed=31)
    per_trial = [en.sample_spectrum(p, k).points for k in range(6)]
    batch = [m.points for m in en.sample_spectra(p, 6)]
    assert len(batch) == 6
    for a, b in zip(per_trial, batch):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")        # a numpy warning fails the test
def test_negative_seed_keeps_its_own_stream():
    # a seed maps to its 64-bit two's complement key: -1 is 2^64 - 1,
    # not the word 0 of seed 0
    minus_one = en.rng_stream(-1).standard_normal(4)
    assert not np.array_equal(minus_one, en.rng_stream(0).standard_normal(4))
    assert np.array_equal(minus_one, en.rng_stream(2 ** 64 - 1).standard_normal(4))
