"""Acceptance criteria, runnable from the CLI (`biortho verify`) and from
pytest (tests/test_acceptance.py calls the same registry).

Each criterion is a function returning (passed, detail).  Heavy shared
artifacts (equilibrium solves, pooled spectra) are cached at module level
so the full suite costs one solve per configuration.  Tolerances are fixed
here, nothing is calibrated at run time; the largest-particle interval
[e - 0.25, e + 0.15] matches the pilot runs documented in the README.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dh_law, ensemble, equilibrium, proof_lab, special
from .gas_sampler import GasConfig, GFunction, Potential, mcmc_sample
from .measures import (EmpiricalMeasure, GridMeasure, pair_kernel_f,
                       pair_kernel_lower, voronoi_cell_edges, w1_distance)


def _dh_config():
    return GasConfig(n=2, g=GFunction("log"), v=Potential.linear(1.0), b=1.0)


def _id_config():
    return GasConfig(n=2, g=GFunction("identity"), v=Potential.linear(1.0), b=1.0)


@functools.cache
def _dh_discretization(m=2000):
    law = dh_law.DHLaw()
    return EmpiricalMeasure(law.quantile((np.arange(m) + 0.5) / m))


@functools.cache
def _dh_equilibrium():
    """Criterion-5 solve: 400 nodes on [1e-4, 4], tol 1e-4."""
    grid = equilibrium.make_grid(400, 1e-4, 4.0)
    return equilibrium.minimize_I(_dh_config(), grid, tol=1e-4, max_iter=200_000)


@functools.cache
def _dh_equilibrium_deep():
    """Reference objective for criterion 9: the [1e-4, ...] grid floor
    inflates the objective by ~0.13 (it cannot spread the ~13% of mass that
    lives below 1e-4), so the consistency comparison uses a grid reaching
    1e-8, whose objective is within ~0.02 of the continuum optimum."""
    grid = equilibrium.make_grid(600, 1e-8, 4.0, geo_fraction=0.5)
    return equilibrium.minimize_I(_dh_config(), grid, tol=1e-4, max_iter=200_000)


@functools.cache
def _id_equilibrium():
    """Criterion-6 solve: identity g, 400 nodes on [1e-4, 6], tol 1e-4."""
    grid = equilibrium.make_grid(400, 1e-4, 6.0)
    return equilibrium.minimize_I(_id_config(), grid, tol=1e-4, max_iter=200_000)


@functools.cache
def _spectra(n, theta, b, seed, trials):
    params = ensemble.EnsembleParams(n=n, theta=theta, b=b, seed=seed)
    return ensemble.sample_spectra(params, trials)


# ----------------------------------------------------------------------

def criterion_1_moments():
    """DHLaw.moment_numeric vs k^k/(k+1)! for k = 0..6, rel. error <= 1e-6."""
    law = dh_law.DHLaw()
    worst = 0.0
    for k in range(7):
        exact = dh_law.dh_moment_exact(k)
        numeric = law.moment_numeric(k)
        worst = max(worst, abs(numeric - exact) / max(1.0, exact))
    return worst <= 1e-6, f"worst relative error {worst:.2e} (<= 1e-6)"


def criterion_2_lambertw():
    """Round-trip residual <= 1e-12 on 1e4 points over all three regimes;
    cut values in the strip; branch-point continuity to 1e-6."""
    rng = np.random.default_rng(20240901)
    n_each = 3334
    x_real = np.concatenate([
        np.linspace(special.BRANCH_POINT, 20.0, n_each // 2),
        np.geomspace(20.0, 1e8, n_each - n_each // 2)])
    w_real = special.lambert_w0_real(x_real)
    res_real = np.abs(w_real * np.exp(w_real) - x_real) / np.maximum(1.0, np.abs(x_real))
    z_up = (rng.uniform(-50, 50, n_each)
            + 1j * np.exp(rng.uniform(np.log(1e-6), np.log(50), n_each)))
    w_up = special.lambert_w0_complex(z_up)
    res_up = np.abs(w_up * np.exp(w_up) - z_up) / np.maximum(1.0, np.abs(z_up))
    x_cut = -np.geomspace(1.0 / np.e + 1e-12, 1e8, n_each)
    w_cut = special.lambert_w0_cut_above(x_cut)
    res_cut = np.abs(w_cut * np.exp(w_cut) - x_cut) / np.abs(x_cut)
    strip = np.all((w_cut.imag > 0) & (w_cut.imag < np.pi))
    bp_real = abs(special.lambert_w0_real(special.BRANCH_POINT + 1e-14) + 1.0)
    bp_cut = abs(special.lambert_w0_cut_above(special.BRANCH_POINT - 1e-13) + 1.0)
    worst = max(res_real.max(), res_up.max(), res_cut.max())
    total = x_real.size + z_up.size + x_cut.size
    ok = worst <= 1e-12 and strip and bp_real <= 1e-6 and bp_cut <= 1e-6
    return ok, (f"{total} points, worst residual {worst:.2e}, strip ok={strip}, "
                f"branch-point continuity {max(bp_real, bp_cut):.2e}")


def criterion_3_mean_spectrum():
    """theta=0, b=1, n=256, 50 trials: first moment within 3 SE of
    (n+1)/(2n); second moment within 5% of 2/3."""
    specs = _spectra(256, 0.0, 1.0, 42, 50)
    m1 = np.array([s.points.mean() for s in specs])
    m2 = np.array([np.mean(s.points ** 2) for s in specs])
    target1 = 257.0 / 512.0
    se = m1.std(ddof=1) / math.sqrt(len(m1))
    z = abs(m1.mean() - target1) / se
    rel2 = abs(m2.mean() - 2.0 / 3.0) / (2.0 / 3.0)
    ok = z <= 3.0 and rel2 <= 0.05
    return ok, f"first moment |z| = {z:.2f} (<= 3), second moment off by {rel2:.2%} (<= 5%)"


def criterion_4_largest_particle():
    """theta=0, b=1, n=512, 20 trials: median largest particle in
    [e - 0.25, e + 0.15]."""
    specs = _spectra(512, 0.0, 1.0, 99, 20)
    med = float(np.median([ensemble.largest_particle(s) for s in specs]))
    lo, hi = np.e - 0.25, np.e + 0.15
    return lo <= med <= hi, f"median x* = {med:.4f} in [{lo:.4f}, {hi:.4f}]"


def criterion_5_variational():
    """g=log, V=x on 400 nodes over [1e-4, 4]: W1 to the quantile
    discretization <= 0.02, KKT <= 1e-4, |b_eq - e| <= 0.05."""
    rep = _dh_equilibrium()
    w1 = w1_distance(rep.minimizer, _dh_discretization())
    db = abs(rep.b_eq - np.e)
    ok = w1 <= 0.02 and rep.kkt_residual <= 1e-4 and db <= 0.05
    return ok, (f"W1 = {w1:.4f} (<= 0.02), kkt = {rep.kkt_residual:.2e} (<= 1e-4), "
                f"|b_eq - e| = {db:.4f} (<= 0.05)")


def criterion_6_cross_method():
    """theta=1: equilibrium minimizer vs pooled matrix spectra at n=512
    (W1 <= 0.05) and MCMC vs matrix model at n=32 (W1 <= 0.05)."""
    rep = _id_equilibrium()
    pooled512 = EmpiricalMeasure(np.concatenate(
        [s.points for s in _spectra(512, 1.0, 1.0, 21, 20)]))
    w1_a = w1_distance(rep.minimizer, pooled512)

    cfg = GasConfig(n=32, g=GFunction("identity"), v=Potential.linear(1.0), b=1.0)
    _, diag = mcmc_sample(cfg, steps=1500, burn_in=800, seed=1000,
                          record_every=10, chains=20)
    pooled_mc = EmpiricalMeasure(diag.trace)
    pooled32 = EmpiricalMeasure(np.concatenate(
        [s.points for s in _spectra(32, 1.0, 1.0, 5, 50)]))
    w1_b = w1_distance(pooled_mc, pooled32)
    ok = w1_a <= 0.05 and w1_b <= 0.05
    return ok, f"solver vs n=512 spectra W1 = {w1_a:.4f}, MCMC vs n=32 W1 = {w1_b:.4f} (<= 0.05)"


def criterion_7_proof_lab():
    """Uniform[1,2]: exact spacing with C=1, A_max = 1.5 +- 1e-9,
    fraction(1000, 0.1) >= 0.95 nondecreasing in n, Riemann sum within 0.05
    of 0.75, configuration BL <= 1/n + 2e-4."""
    sigma = proof_lab.uniform_nice(1.0, 2.0)
    gid = GFunction("identity")
    grids = {n: proof_lab.build_quantile_grid(sigma, n) for n in (100, 300, 1000)}
    stats = {n: proof_lab.ratio_statistics(grid, gid, 0.1) for n, grid in grids.items()}
    fractions = [s.fraction for s in stats.values()]
    ok_sp, worst = proof_lab.check_spacing_bounds(grids[1000], 1.0)
    a_max_err = abs(stats[1000].a_max - 1.5)
    gaps = proof_lab.energy_gap(grids[1000], gid, 0.75, 0.75)
    riemann_err = abs(gaps.riemann_sum - 0.75)
    bl_val = proof_lab.configuration_bl_check(grids[100], sigma, m=10_000)
    bl_bound = 1.0 / 100 + 2e-4
    nondecr = all(fractions[k] <= fractions[k + 1] + 1e-15 for k in range(2))
    ok = (ok_sp and a_max_err <= 1e-9 and fractions[-1] >= 0.95 and nondecr
          and riemann_err <= 0.05 and bl_val <= bl_bound)
    return ok, (f"spacing ok={ok_sp}, |A_max - 1.5| = {a_max_err:.1e}, "
                f"fractions {[f'{f:.3f}' for f in fractions]}, "
                f"|Riemann - 0.75| = {riemann_err:.4f}, BL {bl_val:.5f} <= {bl_bound:.5f}")


def criterion_8_rate_properties():
    """Pair-kernel bound on 1e5 pairs x 3 configs; convexity along 100
    segments; gradient vs finite differences to 1e-6; two-initialization
    uniqueness W1 <= 1e-3."""
    rng = np.random.default_rng(7)
    configs = [
        GasConfig(2, GFunction("log"), Potential.linear(1.0), 1.0),
        GasConfig(2, GFunction("power", 2.0), Potential.linear(1.0), 1.0),
        GasConfig(2, GFunction("asinh2"), Potential.polynomial([0.0, 0.0, 1.0]), 1.0),
    ]
    kernel_ok = True
    for cfg in configs:
        x = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 100_000))
        y = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 100_000))
        f = pair_kernel_f(x, y, cfg)
        phi = pair_kernel_lower(x, cfg) + pair_kernel_lower(y, cfg)
        kernel_ok &= bool(np.all(f >= phi - 1e-12))

    cfg = _dh_config()
    nodes = equilibrium.make_grid(150, 1e-3, 4.0)
    quad, lin = equilibrium._quadratic_model(nodes, cfg)

    def rate(w):                # rate_I's arithmetic on a model built once
        return 0.5 * float(w @ quad @ w) + float(lin @ w)

    convex_ok = True
    for _ in range(100):
        wa = rng.dirichlet(np.ones(nodes.size))
        wb = rng.dirichlet(np.ones(nodes.size))
        im = rate(0.5 * (wa + wb))
        convex_ok &= im <= 0.5 * (rate(wa) + rate(wb)) + 1e-10
    convex_ok &= rate(wa) == equilibrium.rate_I(GridMeasure(nodes, wa), cfg)

    nodes_g = equilibrium.make_grid(80, 1e-3, 4.0)
    mat, vv = equilibrium._quadratic_model(nodes_g, cfg)
    grad_ok = True
    for _ in range(10):
        w = rng.dirichlet(np.ones(nodes_g.size))
        grad = mat @ w + vv
        h = 1e-6
        for idx in rng.choice(nodes_g.size, 5, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fp = 0.5 * wp @ (mat @ wp) + vv @ wp
            fm = 0.5 * wm @ (mat @ wm) + vv @ wm
            fd = (fp - fm) / (2 * h)
            grad_ok &= abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))

    grid = equilibrium.make_grid(200, 1e-4, 4.0)
    r1 = equilibrium.minimize_I(cfg, grid, tol=1e-5, max_iter=150_000)
    shape = (grid / 4.0) * (1.0 - grid / 4.0) ** 4 * np.diff(voronoi_cell_edges(grid))
    w0 = np.maximum(shape, 1e-12)
    r2 = equilibrium.minimize_I(cfg, grid, tol=1e-5, max_iter=150_000,
                                w0=w0 / w0.sum())
    uni = w1_distance(r1.minimizer, r2.minimizer)
    ok = kernel_ok and convex_ok and grad_ok and uni <= 1e-3
    return ok, (f"kernel bound ok={kernel_ok}, convexity ok={convex_ok}, "
                f"gradient ok={grad_ok}, two-init W1 = {uni:.2e} (<= 1e-3)")


def criterion_9_empirical_rate():
    """Median empirical rate of spectral samples approaches the solver
    optimum: the distance decreases along n in {64,...,512} and the n=512
    median lands within 0.1 of the (deep-grid) objective.  The medians
    themselves increase toward the optimum from below: off-diagonal
    empirical energies omit the positive self-energy term."""
    cfg = _dh_config()
    ref = _dh_equilibrium_deep().objective
    meds = []
    for n in (64, 128, 256, 512):
        params = ensemble.EnsembleParams(n=n, theta=0.0, b=1.0, seed=11)
        vals = [equilibrium.rate_I_empirical(ensemble.sample_spectrum(params, k), cfg)
                for k in range(15)]
        meds.append(float(np.median(vals)))
    dists = [abs(m - ref) for m in meds]
    decreasing = all(dists[k + 1] < dists[k] for k in range(len(dists) - 1))
    ok = decreasing and dists[-1] <= 0.1
    return ok, (f"objective {ref:.4f}, medians {[f'{m:.4f}' for m in meds]}, "
                f"distances {[f'{d:.4f}' for d in dists]} decreasing={decreasing}, "
                f"final {dists[-1]:.4f} (<= 0.1)")


def criterion_10_rate_j():
    """J(b_eq) = 0 exactly; J = +inf below b_eq; J strictly increasing on
    [b_eq, 3 b_eq] at 20 points for the DH configuration."""
    rep = _dh_equilibrium()
    cfg = _dh_config()
    j0 = equilibrium.rate_J_largest(rep.b_eq, rep.minimizer, cfg)
    j_below = equilibrium.rate_J_largest(0.9 * rep.b_eq, rep.minimizer, cfg)
    xs = np.linspace(rep.b_eq, 3.0 * rep.b_eq, 20)
    js = equilibrium.rate_J_largest(xs, rep.minimizer, cfg)
    increasing = bool(np.all(np.diff(js) > 0))
    ok = j0 == 0.0 and np.isinf(j_below) and increasing
    return ok, (f"J(b_eq) = {j0}, J(0.9 b_eq) = {j_below}, "
                f"strictly increasing on [b_eq, 3b_eq]={increasing}")


CRITERIA = (
    (1, "moment-identity", criterion_1_moments),
    (2, "lambert-w-roundtrip", criterion_2_lambertw),
    (3, "matrix-mean-spectrum", criterion_3_mean_spectrum),
    (4, "largest-particle", criterion_4_largest_particle),
    (5, "variational-dh", criterion_5_variational),
    (6, "cross-method-theta1", criterion_6_cross_method),
    (7, "proof-lab-uniform", criterion_7_proof_lab),
    (8, "rate-function-properties", criterion_8_rate_properties),
    (9, "empirical-rate", criterion_9_empirical_rate),
    (10, "largest-particle-rate-j", criterion_10_rate_j),
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def run_criterion(index):
    for idx, name, fn in CRITERIA:
        if idx == index:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(idx, name, passed, detail, time.perf_counter() - t0)
    raise ValueError(f"no criterion {index}")

