"""Measure containers, distances, energies, pair kernel."""

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from biortho import measures as mm, proof_lab
from biortho.gas_sampler import GasConfig, GFunction, Potential


def em(*pts):
    return mm.EmpiricalMeasure(np.asarray(pts, dtype=float))


def bl_lp(a, b):
    """Reference d_BL: the same maximization as a sparse LP (HiGHS), its f
    clipped to [-1, 1] and clamped forward along the sorted support, which
    makes it exactly feasible, the LP's own being so only to ~1e-9."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    xa, wa = mm.support_and_weights(a)
    xb, wb = mm.support_and_weights(b)
    xs, inv = np.unique(np.concatenate([xa, xb]), return_inverse=True)
    delta = np.bincount(inv, weights=np.concatenate([wa, -wb]),
                        minlength=xs.size)
    if xs.size == 1:
        return float(abs(delta[0]))
    gaps = np.diff(xs)
    d = sparse.diags([-np.ones(xs.size - 1), np.ones(xs.size - 1)], [0, 1],
                     shape=(xs.size - 1, xs.size), format="csr")
    res = optimize.linprog(c=-delta, A_ub=sparse.vstack([d, -d], format="csr"),
                           b_ub=np.concatenate([gaps, gaps]),
                           bounds=(-1.0, 1.0), method="highs")
    assert res.success, res.message
    f = np.clip(res.x, -1.0, 1.0).tolist()
    for i, h in enumerate(gaps.tolist()):
        f[i + 1] = min(max(f[i + 1], f[i] - h), f[i] + h)
    return max(float(np.dot(f, delta)), 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestContainers:
    def test_empirical_sorts(self):
        m = em(3.0, 1.0, 2.0)
        assert np.array_equal(m.points, [1.0, 2.0, 3.0])
        assert np.allclose(m.weights(), 1.0 / 3.0)

    def test_empirical_rejects_nan(self):
        with pytest.raises(ValueError):
            em(1.0, np.nan)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 1.0], [0.5, 0.5])      # not strictly increasing
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 2.0], [0.7, 0.7])      # sum != 1
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 2.0], [-0.1, 1.1])     # negative weight
        g = mm.GridMeasure([1.0, 2.0], [0.25, 0.75])
        assert g.n == 2


class TestPushforward:
    def test_identity(self):
        m = em(1.0, 2.0)
        out = mm.pushforward(m, GFunction("identity"))
        assert np.array_equal(out.points, m.points)

    def test_log(self):
        out = mm.pushforward(em(1.0, np.e), GFunction("log"))
        assert np.allclose(out.points, [0.0, 1.0])

    def test_power(self):
        out = mm.pushforward(em(1.0, 2.0, 3.0), GFunction("power", 2.0))
        assert np.allclose(out.points, [1.0, 4.0, 9.0])

    def test_grid_weights_preserved(self):
        g = mm.GridMeasure([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        out = mm.pushforward(g, GFunction("power", 2.0))
        assert np.array_equal(out.weights, g.weights)
        assert out.weights.sum() == pytest.approx(1.0, abs=0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mm.pushforward(em(0.0, 1.0), GFunction("log"))


class TestW1:
    def test_identical(self):
        assert mm.w1_distance(em(1.0, 2.0), em(1.0, 2.0)) == 0.0

    def test_point_masses(self):
        assert mm.w1_distance(em(0.0), em(1.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert mm.w1_distance(em(0.0, 1.0), em(0.5)) == pytest.approx(0.5)

    def test_vs_scipy(self, rng):
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 40))
            b = rng.normal(size=rng.integers(1, 40))
            ours = mm.w1_distance(mm.EmpiricalMeasure(a), mm.EmpiricalMeasure(b))
            assert ours == pytest.approx(wasserstein_distance(a, b), abs=1e-12)

    def test_weighted(self, rng):
        g = mm.GridMeasure([0.0, 1.0], [0.5, 0.5])
        assert mm.w1_distance(g, em(0.5)) == pytest.approx(0.5)


class TestBoundedLipschitz:
    def test_identical(self):
        assert mm.bl_distance(em(1.0), em(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_far_atoms_capped(self):
        # LP dual by hand: min(t, 2) at separation t = 5
        assert mm.bl_distance(em(0.0), em(5.0)) == pytest.approx(2.0, abs=1e-9)

    def test_near_atoms_linear(self):
        assert mm.bl_distance(em(0.0), em(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_dominated_by_w1_and_2(self, rng):
        for _ in range(100):
            a = mm.EmpiricalMeasure(rng.normal(size=rng.integers(1, 25)) * 3)
            b = mm.EmpiricalMeasure(rng.normal(size=rng.integers(1, 25)) * 3)
            bl = mm.bl_distance(a, b)
            w1 = mm.w1_distance(a, b)
            assert bl <= min(w1, 2.0) + 1e-9

    def test_metric_axioms(self, rng):
        for _ in range(25):
            triple = [mm.EmpiricalMeasure(rng.normal(size=6)) for _ in range(3)]
            a, b, c = triple
            for dist in (mm.bl_distance, mm.w1_distance):
                assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-10)
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10

    def test_matches_lp(self, rng):
        for k in range(240):
            scale = 10.0 ** rng.uniform(-3.0, np.log10(30.0))
            xa = rng.random(rng.integers(1, 30)) * scale
            xb = rng.random(rng.integers(1, 30)) * scale
            if k % 3 == 0:                      # shared atoms
                xb = np.concatenate([xb, xa[: rng.integers(1, xa.size + 1)]])
            a = mm.EmpiricalMeasure(xa)
            if k % 2:
                nodes = np.unique(xa)
                a = mm.GridMeasure(nodes, rng.dirichlet(np.ones(nodes.size)))
            b = mm.EmpiricalMeasure(xb)
            assert abs(mm.bl_distance(a, b) - bl_lp(a, b)) <= 1e-12

    def test_criterion_7_configuration_matches_lp(self):
        sigma = proof_lab.uniform_nice(1.0, 2.0)
        grid = proof_lab.build_quantile_grid(sigma, 100)
        m = 10_000
        a = mm.EmpiricalMeasure(0.5 * (grid.c + grid.d))
        b = mm.EmpiricalMeasure(sigma.quantile((np.arange(m) + 0.5) / m))
        assert abs(mm.bl_distance(a, b) - bl_lp(a, b)) <= 1e-12


class TestEnergies:
    def test_offdiag_trivial(self):
        assert mm.log_energy_offdiag(em(0.0, 1.0)) == 0.0
        assert mm.log_energy_offdiag(em(0.0, 2.0)) == pytest.approx(-np.log(2) / 2)

    def test_offdiag_uniform_limit(self):
        for n, tol in ((100, 0.12), (1000, 0.02)):
            e = mm.log_energy_offdiag(mm.EmpiricalMeasure(np.linspace(0, 1, n)))
            assert abs(e - 1.5) < tol

    def test_offdiag_coincidence(self):
        with pytest.raises(ValueError):
            mm.log_energy_offdiag(em(1.0, 1.0))

    def test_grid_single_node(self):
        g = mm.GridMeasure([1.0], [1.0])
        for h in (0.1, 0.5, 2.0):
            assert mm.log_energy_grid(g, [h]) == pytest.approx(-np.log(h) + 1.5)
        with pytest.raises(ValueError):
            mm.log_energy_grid(g)

    def test_grid_uniform_law(self):
        n = 1000
        g = mm.GridMeasure(np.linspace(0, 1, n), np.full(n, 1.0 / n))
        assert abs(mm.log_energy_grid(g) - 1.5) < 0.01

    def test_grid_translation_invariant(self):
        n = 200
        w = np.full(n, 1.0 / n)
        x = np.linspace(0.3, 1.7, n)
        e1 = mm.log_energy_grid(mm.GridMeasure(x, w))
        e2 = mm.log_energy_grid(mm.GridMeasure(x + 11.0, w))
        assert e1 == pytest.approx(e2, abs=1e-9)

    def test_splitting_point_mass_decreases_energy(self, rng):
        # a point mass split half-and-half onto its (empty) neighbours
        for _ in range(100):
            n = int(rng.integers(5, 30))
            x = np.cumsum(rng.uniform(0.5, 1.5, n))
            j = int(rng.integers(1, n - 1))
            w_atom = np.zeros(n)
            w_atom[j] = 1.0
            w_split = np.zeros(n)
            w_split[j - 1] = w_split[j + 1] = 0.5
            e_atom = mm.log_energy_grid(mm.GridMeasure(x, w_atom))
            e_split = mm.log_energy_grid(mm.GridMeasure(x, w_split))
            assert e_split < e_atom


class TestPairKernel:
    @pytest.fixture
    def cfg(self):
        return GasConfig(2, GFunction("identity"), Potential.linear(1.0), 1.0)

    def test_hand_value(self, cfg):
        assert mm.pair_kernel_f(1.0, 2.0, cfg) == pytest.approx(1.5)

    def test_symmetric(self, cfg, rng):
        x = rng.uniform(0.1, 10, 200)
        y = rng.uniform(0.1, 10, 200)
        assert np.array_equal(mm.pair_kernel_f(x, y, cfg),
                              mm.pair_kernel_f(y, x, cfg))

    def test_coincidence_infinite(self, cfg):
        assert mm.pair_kernel_f(2.0, 2.0, cfg) == np.inf

    @pytest.mark.parametrize("g,v", [
        (GFunction("log"), Potential.linear(1.0)),
        (GFunction("power", 2.0), Potential.linear(1.0)),
        (GFunction("asinh2"), Potential.polynomial([0.0, 0.0, 1.0])),
    ])
    def test_confinement_bound(self, g, v, rng):
        cfg = GasConfig(2, g, v, 1.0)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 10_000))
        y = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 10_000))
        f = mm.pair_kernel_f(x, y, cfg)
        phi = mm.pair_kernel_lower(x, cfg) + mm.pair_kernel_lower(y, cfg)
        assert np.all(f >= phi - 1e-12)


def test_csv_roundtrip(tmp_path):
    g = mm.GridMeasure([0.5, 1.5, 2.5], [0.2, 0.5, 0.3])
    path = tmp_path / "m.csv"
    mm.measure_to_csv(g, path)
    assert path.read_text().splitlines()[0] == "x,w"
    back = mm.measure_from_csv(path)
    assert isinstance(back, mm.GridMeasure)
    assert np.allclose(back.nodes, g.nodes)
    assert np.allclose(back.weights, g.weights)
    e = em(1.0, 2.0)
    mm.measure_to_csv(e, path)
    back = mm.measure_from_csv(path)
    assert isinstance(back, mm.EmpiricalMeasure)
