"""Gas configuration, confinement rule, Metropolis sampler."""

import json
from pathlib import Path

import numpy as np
import pytest

from biortho import ensemble as en
from biortho import gas_sampler
from biortho.gas_sampler import GasConfig, GFunction, Potential, mcmc_sample
from biortho.measures import EmpiricalMeasure, w1_distance

# Runs that cross the sampler's block boundaries, as hex floats: g = log,
# V = x, b = 1, same numpy build and CPU as PARITY_PINS below.  Recorded
# before the sweep was split into blocks of gas_sampler._BLOCK rows.
BLOCK_PINS = json.loads(Path(__file__).with_name("gas_block_pins.json").read_text())


# g for the reference sampler, written out rather than read from
# gas_sampler._G_KINDS, so that a wrong entry there shows
REFERENCE_MAPS = {"identity": lambda x: x + 0.0, "log": np.log,
                  "power:2": lambda x: x ** 2.0}


def reference_sample(cfg, g, steps, burn_in, seed, chains):
    """Plain single-coordinate Metropolis for the gas, one chain and one
    coordinate at a time: the proposals come from the numpy calls
    mcmc_sample makes on chain c's stream, and each decision from the
    direct log-density difference -n dV + b dlog x + sum_j dlog|x - x_j|
    + sum_j dlog|g - g_j| (-inf for a proposal on a coordinate, which
    rejects).  Returns final states (chains, n) and post-burn-in acceptance
    counts (chains,)."""
    n, b = cfg.n, cfg.b
    finals, counts = [], []
    for c in range(chains):
        rng = en.rng_stream(seed, c)
        x = 2.0 * (np.arange(n) + 0.5) / n
        log_x, v, gx = np.log(x), cfg.v(x), g(x)
        log_sig = np.log(np.full(n, 0.5))
        sig = np.exp(log_sig)
        count = 0
        for sweep in range(burn_in + steps):
            z, u = rng.standard_normal(n), rng.random(n)
            log_xp = log_x + sig * z
            xp = np.exp(log_xp)
            vp, gp = cfg.v(xp), g(xp)
            accepted = np.zeros(n, dtype=bool)
            for i in range(n):
                others = np.arange(n) != i
                if not 0.0 < xp[i] < np.inf:
                    continue
                delta = (-n * (vp[i] - v[i]) + b * (log_xp[i] - log_x[i])
                         + np.sum(np.log(np.abs(xp[i] - x[others]))
                                  - np.log(np.abs(x[i] - x[others])))
                         + np.sum(np.log(np.abs(gp[i] - gx[others]))
                                  - np.log(np.abs(gx[i] - gx[others]))))
                if np.log(u[i]) < delta:
                    accepted[i] = True
                    x[i], log_x[i], v[i], gx[i] = xp[i], log_xp[i], vp[i], gp[i]
            if sweep < burn_in:
                log_sig += (sweep + 1.0) ** -0.6 * (accepted - 0.35)
                sig = np.exp(log_sig)
            else:
                count += int(accepted.sum())
        finals.append(x)
        counts.append(count)
    return np.array(finals), np.array(counts)


class TestGFunction:
    def test_parse(self):
        assert GFunction.parse("power:2").theta == 2.0
        assert GFunction.parse("id").kind == "identity"
        assert GFunction.parse("log").kind == "log"
        assert GFunction.parse("asinh2").kind == "asinh2"
        with pytest.raises(ValueError):
            GFunction.parse("cubic")
        with pytest.raises(ValueError):
            GFunction("power", -1.0)
        with pytest.raises(ValueError, match="finite"):
            GFunction("power", np.inf)

    @pytest.mark.parametrize("text", ["log:3", "id:2", "exp:1", "identity:x", "log:"])
    def test_only_power_takes_an_argument(self, text):
        with pytest.raises(ValueError, match=f"cannot parse interaction map '{text}'"):
            GFunction.parse(text)

    def test_only_power_takes_a_theta(self):
        for kind in ("log", "asinh2", "exp", "identity"):
            with pytest.raises(ValueError, match=f"'{kind}' takes no theta, not 3.0"):
                GFunction(kind, 3.0)
            assert GFunction(kind, 1.0) == GFunction(kind) == GFunction.parse(kind)
        assert GFunction.parse("power") == GFunction("power", 1.0)

    def test_increasing(self):
        x = np.linspace(0.01, 20.0, 500)
        for g in (GFunction("power", 0.5), GFunction("log"), GFunction("asinh2"),
                  GFunction("exp"), GFunction("identity")):
            assert np.all(np.diff(g(x)) > 0)

    def test_asinh2_definition(self):
        x = 2.0
        g = GFunction("asinh2")
        assert g(x) == pytest.approx(np.arcsinh(np.sqrt(x)) ** 2)


class TestPotential:
    def test_parse(self):
        assert Potential.parse("linear:2")(3.0) == 6.0
        p = Potential.parse("poly:0,0,1")
        assert p(3.0) == 9.0
        with pytest.raises(ValueError):
            Potential.parse("linear:-1")
        with pytest.raises(ValueError):
            Potential.polynomial([1.0, -2.0])   # negative leading coefficient
        with pytest.raises(ValueError):
            Potential.polynomial([1.0])         # degree 0 cannot confine
        for coeffs in ((0.0, 1.0, np.inf), (np.nan, 1.0), (0.0, np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Potential(coeffs)

    def test_out_array_takes_the_values(self):
        x = np.array([0.0, 0.5, 3.0, np.inf])
        p = Potential.polynomial([0.5, -1.0, 0.25, 2.0])
        out = np.empty(4)
        assert p(x, out=out) is out
        assert np.array_equal(out, p(x))
        assert np.array_equal(out[:3], np.polynomial.polynomial.polyval(x[:3], p.coeffs))
        assert out[3] == np.inf


def test_gas_config_rejects_infinite_weight_exponent():
    with pytest.raises(ValueError, match="finite"):
        GasConfig(4, GFunction("log"), Potential.linear(1.0), np.inf)


LOG_GAS = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)


@pytest.mark.parametrize("name, call", [
    ("steps", lambda: mcmc_sample(LOG_GAS, steps=10.5, burn_in=10, seed=0)),
    ("steps", lambda: mcmc_sample(LOG_GAS, steps=10.0, burn_in=10, seed=0)),
    ("burn_in", lambda: mcmc_sample(LOG_GAS, steps=10, burn_in="10", seed=0)),
    ("chains", lambda: mcmc_sample(LOG_GAS, steps=10, burn_in=10, seed=0, chains=2.0)),
    ("chains", lambda: mcmc_sample(LOG_GAS, steps=10, burn_in=10, seed=0, chains=0)),
    ("n", lambda: GasConfig(2.5, GFunction("log"), Potential.linear(1.0), 1.0)),
    ("n", lambda: en.EnsembleParams(n=3.0, theta=0.0, b=1.0, seed=0)),
    ("trials", lambda: en.sample_spectra(en.EnsembleParams(3, 0.0, 1.0, 0), 2.0)),
    ("trials", lambda: en.sample_spectra(en.EnsembleParams(3, 0.0, 1.0, 0), -1)),
])
def test_counts_must_be_integers(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_counts_accept_numpy_integers():
    cfg = GasConfig(np.int32(4), GFunction("log"), Potential.linear(1.0), 1.0)
    _, diag = mcmc_sample(cfg, steps=np.int64(10), burn_in=np.int64(10), seed=0,
                          chains=np.int64(2))
    assert diag.final.shape == (2, 4)
    specs = en.sample_spectra(en.EnsembleParams(np.int64(3), 0.0, 1.0, 0), np.int64(2))
    assert [s.points.size for s in specs] == [3, 3]


class TestConfinementRule:
    # the pair kernel's minorant V/2 - log(1+t)/2 - log(1+|g|)/2 goes to
    # +inf unless g = exp and V = c0 + a*x with a <= 1; b plays no part

    @pytest.mark.parametrize("v", ["linear:1", "linear:0.5", "poly:3,1"])
    @pytest.mark.parametrize("b", [0.5, 30.0])
    def test_exp_with_slope_at_most_one_is_refused(self, v, b):
        # GasConfig itself refuses it, so neither sampler nor solver sees it
        with pytest.raises(ValueError, match="^growth: "):
            GasConfig(4, GFunction("exp"), Potential.parse(v), b)

    @pytest.mark.parametrize("g, v", [("exp", "linear:1.5"), ("exp", "poly:0,0,1"),
                                      ("exp", "poly:0,0.5,0.01"), ("log", "linear:0.05"),
                                      ("power:3", "linear:0.2"), ("id", "linear:0.05")])
    @pytest.mark.parametrize("b", [0.5, 30.0])
    def test_every_other_gas_is_sampled(self, g, v, b):
        # at b = 30 the exp chain proposes x' > 709.8, where g overflows; such
        # a proposal must reject, since with its gaps inf every later ratio
        # is inf/inf and the chain would freeze
        cfg = GasConfig(4, GFunction.parse(g), Potential.parse(v), b)
        _, diag = mcmc_sample(cfg, steps=20, burn_in=20, seed=0)
        assert diag.acceptance_rate > 0.0 and np.all(np.isfinite(cfg.g(diag.final)))

    @pytest.mark.parametrize("a, b, seed", [(0.05, 1.0, 4), (1.0, 30.0, 5)])
    def test_newly_admitted_gas_has_the_lue_mean(self, a, b, seed):
        # g = identity, V = a*x, weight x^(b-1): the law is LUE with
        # parameter b - 1 scaled by 1/(n a), so the mean particle is exactly
        # (n + b - 1)/(n a).  20 independent chains give the standard error;
        # the pinned seeds read z = -0.55 and -0.46, the other seed (5, then
        # 4) z = -0.31 and -0.12
        n = 8
        cfg = GasConfig(n, GFunction("identity"), Potential.linear(a), b)
        _, diag = mcmc_sample(cfg, steps=2000, burn_in=1000, seed=seed,
                              record_every=10, chains=20)
        means = diag.trace.mean(axis=(1, 2))
        z = (means.mean() - (n + b - 1) / (n * a)) / (means.std(ddof=1) / np.sqrt(means.size))
        assert abs(z) <= 3.0


class TestMcmc:
    def test_positive_steps(self):
        cfg = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)
        with pytest.raises(ValueError):
            mcmc_sample(cfg, steps=0, burn_in=10, seed=0)

    def test_deterministic(self):
        cfg = GasConfig(8, GFunction("log"), Potential.linear(1.0), 1.0)
        m1, d1 = mcmc_sample(cfg, steps=60, burn_in=40, seed=4)
        m2, d2 = mcmc_sample(cfg, steps=60, burn_in=40, seed=4)
        assert np.array_equal(m1.points, m2.points)
        assert d1.acceptance_rate == d2.acceptance_rate

    # Single-chain outputs with numpy 2.4.6 on an x86-64 Xeon (AVX-512
    # dispatch): log and identity recorded before the chains ran in
    # lock-step, power:2, asinh2 and exp before the coordinate loop shared
    # one gap subtraction.  numpy's exp and log may differ in the last bit
    # on another SIMD target, so a mismatch on a different CPU or numpy
    # build need not mean a change in the sampler.  exp runs on V = x + x^2,
    # since V = x does not confine it.
    PARITY_PINS = {
        "log": (["0x1.9f498803d9d2cp-19", "0x1.a3d5eb3ab41d1p-8", "0x1.1ecd4c6ed43ecp-4",
                 "0x1.3410e87d79a47p-3", "0x1.9b64da752be3dp-3", "0x1.9e54745e958f2p-2",
                 "0x1.4ae5c8952186ap+0", "0x1.f3acac5f9fa58p+0"],
                "0x1.e000000000000p-2",
                ["0x1.2e90e524630c5p+1", "0x1.6fa15ca10661ep+0", "0x1.ee4e8587c9843p-1",
                 "0x1.edf329ac0fbb4p-1", "0x1.04016b41b17bap+0", "0x1.8e7eb093f2d83p-2",
                 "0x1.5299e862a1c48p-1", "0x1.5829505858c72p-1"]),
        "identity": (["0x1.ffe8cdb538014p-8", "0x1.e45723278e793p-5", "0x1.146f39f39a10ep-2",
                      "0x1.19a9aa5ee2e7bp-1", "0x1.b2cd3dbf4c1f5p-1", "0x1.24b0d3577d8d5p+0",
                      "0x1.8574954cad5bep+0", "0x1.6b3c7da8c739fp+1"],
                     "0x1.a666666666666p-2",
                     ["0x1.585cab6f23ff4p+1", "0x1.fcd4aee2270d2p+0", "0x1.a70d0a496da9dp+0",
                      "0x1.1bbfc7e1d8911p-1", "0x1.c22672eaa5ecap-1", "0x1.875a3d2512866p-2",
                      "0x1.a4e6159d98928p-2", "0x1.f6b923b74ce3ap-2"]),
        "power:2": (["0x1.720ce22040cf6p-8", "0x1.3b5baa0aa9088p-4", "0x1.c51ba44e9b88ep-2",
                     "0x1.4a3983fbf418ep-1", "0x1.3e3eec321d22bp+0", "0x1.6259d2443688cp+0",
                     "0x1.65be2a9f69dffp+1", "0x1.0b394b17b52bcp+2"],
                    "0x1.6666666666666p-2",
                    ["0x1.10f60f6e1d2e4p+1", "0x1.2f48ab7e6e46dp+0", "0x1.c2ab8d3581fdfp+0",
                     "0x1.c143e6c8598a5p-1", "0x1.7bf65fba0a6fap+0", "0x1.1f70bea88a1dep+0",
                     "0x1.d2024940d9823p-2", "0x1.247ad2800e743p-1"]),
        "asinh2": (["0x1.bbb8ad77371cap-8", "0x1.d7b17db52068dp-6", "0x1.6d3772dd20311p-2",
                    "0x1.a8da588db0985p-2", "0x1.6dd1b880eaca5p-1", "0x1.3b2df135a1d5ap+0",
                    "0x1.35a4bf52e56d4p+1", "0x1.587788a99775ep+1"],
                   "0x1.b111111111111p-2",
                   ["0x1.9786d0428338bp+0", "0x1.cbfac713a979cp-1", "0x1.8cec7f7d0ac4ep+1",
                    "0x1.814f741418f32p-1", "0x1.617b9e0d0219ap-1", "0x1.53562171f8476p-2",
                    "0x1.daf7a31218d9bp-2", "0x1.d9464db7a069ep-2"]),
        "exp": (["0x1.ddf1d2d110768p-7", "0x1.30d6fb41c2413p-5", "0x1.3d2ee411c577cp-3",
                 "0x1.21b6aacb2b180p-2", "0x1.684851fdfde1bp-2", "0x1.dec1234a63f8cp-2",
                 "0x1.3fe85980436b7p-1", "0x1.c9518c1e0a90ep-1"],
                "0x1.5dddddddddddep-2",
                ["0x1.2fb7ecbbdd1a6p+0", "0x1.74b5625ed14ffp+0", "0x1.4a9236e6b23c6p-1",
                 "0x1.384de3c9d1ecbp-2", "0x1.39051f705fb6bp+0", "0x1.15e3a6755b04ap+1",
                 "0x1.350a603cccee2p-1", "0x1.9d35976bad507p-1"]),
    }

    @staticmethod
    def _gas(n, g):
        """Gas of n particles with map g (CLI syntax), b = 1 and V = x, or
        V = x + x^2 for exp, which linear V does not confine."""
        v = Potential.polynomial([0, 1, 1]) if g == "exp" else Potential.linear(1.0)
        return GasConfig(n, GFunction.parse(g), v, 1.0)

    @pytest.mark.parametrize("g", sorted(PARITY_PINS))
    def test_parity_pin(self, g):
        points, rate, steps = self.PARITY_PINS[g]
        cfg = self._gas(8, g)
        meas, diag = mcmc_sample(cfg, steps=60, burn_in=40, seed=4, record_every=5)
        assert [float(v).hex() for v in meas.points] == points
        assert float(diag.acceptance_rate).hex() == rate
        assert [float(v).hex() for v in diag.step_sizes[0]] == steps
        assert diag.trace.shape == (1, 12, 8)

    @staticmethod
    def _block_pin_run(pin):
        cfg = GasConfig(pin["n"], GFunction("log"), Potential.linear(1.0), 1.0)
        return mcmc_sample(cfg, steps=pin["steps"], burn_in=pin["burn_in"],
                           seed=pin["seed"], record_every=pin["record_every"],
                           chains=pin["chains"])[1]

    @pytest.mark.parametrize("name", sorted(BLOCK_PINS))
    def test_block_pin(self, name):
        # n = 37 spans three blocks, the last one ragged; n = 1 is a single
        # one-row block
        pin = BLOCK_PINS[name]
        diag = self._block_pin_run(pin)
        assert [[float(v).hex() for v in row] for row in diag.final] == pin["final"]
        assert [[float(v).hex() for v in row] for row in diag.step_sizes] == pin["step_sizes"]
        assert float(diag.acceptance_rate).hex() == pin["acceptance_rate"]

    @pytest.mark.parametrize("record_every", [-2, -1, 2.5, 2.0, "3", None])
    def test_record_every_must_be_a_nonnegative_integer(self, record_every):
        cfg = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)
        with pytest.raises(ValueError, match="record_every"):
            mcmc_sample(cfg, steps=10, burn_in=10, seed=0, record_every=record_every)

    def test_record_every_accepts_numpy_integers(self):
        cfg = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)
        _, diag = mcmc_sample(cfg, steps=10, burn_in=10, seed=0, record_every=np.int64(5))
        assert diag.trace.shape == (1, 2, 4)

    @pytest.mark.parametrize("g", ["log", "identity", "power", "asinh2", "exp"])
    def test_batch_invariance(self, g):
        # chain c is the same in every run of more than c chains at a seed,
        # and chain 0 is the single-chain run
        cfg = self._gas(7, "power:2" if g == "power" else g)
        meas, diag = mcmc_sample(cfg, steps=50, burn_in=30, seed=11, record_every=4,
                                 chains=3)
        assert diag.final.shape == (3, 7) and diag.trace.shape == (3, 13, 7)
        _, wide = mcmc_sample(cfg, steps=50, burn_in=30, seed=11, record_every=4,
                              chains=5)
        for name in ("final", "trace", "step_sizes", "chain_acceptance"):
            assert np.array_equal(getattr(diag, name), getattr(wide, name)[:3])
        single, first = mcmc_sample(cfg, steps=50, burn_in=30, seed=11, record_every=4)
        assert np.array_equal(np.sort(diag.final[0]), single.points)
        for name in ("final", "trace", "step_sizes"):
            assert np.array_equal(getattr(diag, name)[0], getattr(first, name)[0])
        assert diag.chain_acceptance[0] == first.acceptance_rate
        assert np.array_equal(meas.points, np.sort(diag.final, axis=None))
        assert diag.acceptance_rate == pytest.approx(np.mean(diag.chain_acceptance), abs=1e-15)
        assert isinstance(diag.acceptance_rate, float)

    @pytest.mark.parametrize("g", sorted(REFERENCE_MAPS))
    @pytest.mark.parametrize("n", [2, 5, 19])
    def test_matches_reference_sampler(self, n, g):
        # same draws, same decisions: a change to the density, the Jacobian,
        # the rejection rules, the adaptation or the in-block bookkeeping
        # moves the final states or the acceptance counts
        cfg = GasConfig(n, GFunction.parse(g), Potential.linear(1.0), 1.0)
        steps, burn_in = 40, 30
        _, diag = mcmc_sample(cfg, steps=steps, burn_in=burn_in, seed=21, chains=2)
        final, counts = reference_sample(cfg, REFERENCE_MAPS[g], steps, burn_in, 21, 2)
        assert np.array_equal(diag.final, final)
        assert np.array_equal(diag.chain_acceptance, counts / (n * steps))
        assert counts.min() > 0

    def test_neighbouring_seeds_share_no_chain(self):
        cfg = self._gas(7, "log")
        _, d11 = mcmc_sample(cfg, steps=50, burn_in=30, seed=11, chains=3)
        _, d12 = mcmc_sample(cfg, steps=50, burn_in=30, seed=12, chains=3)
        assert not any(np.array_equal(a, b) for a in d11.final for b in d12.final)

    def test_nan_ratio_rejects(self, monkeypatch):
        # a map that collapses every g gap to 0 makes every ratio 0/0 = nan,
        # which the compare rejects: the chains never leave the start
        monkeypatch.setitem(gas_sampler._G_KINDS, "log", lambda x, t: x * 0.0)
        cfg = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)
        _, diag = mcmc_sample(cfg, steps=20, burn_in=10, seed=3, chains=2)
        assert diag.acceptance_rate == 0.0
        assert np.array_equal(diag.final, [[0.25, 0.75, 1.25, 1.75]] * 2)

    def test_chains_and_wall_time(self):
        cfg = GasConfig(4, GFunction("log"), Potential.linear(1.0), 1.0)
        with pytest.raises(ValueError):
            mcmc_sample(cfg, steps=10, burn_in=10, seed=0, chains=0)
        _, diag = mcmc_sample(cfg, steps=10, burn_in=10, seed=0)
        assert diag.wall_s > 0.0
        assert diag.chain_acceptance.shape == (1,) and diag.final.shape == (1, 4)

    def test_domain_preserved_and_acceptance(self):
        cfg = GasConfig(16, GFunction("log"), Potential.linear(1.0), 1.0)
        meas, diag = mcmc_sample(cfg, steps=400, burn_in=400, seed=2,
                                 record_every=5)
        assert np.all(meas.points > 0)
        assert np.all(diag.trace > 0)
        assert 0.1 < diag.acceptance_rate < 0.9
        assert diag.step_sizes.shape == (1, 16)

    def test_exact_first_moment_theta1(self):
        # the theta = 1, b = 1 gas is the law of the matrix model's S/n, whose
        # mean particle has expectation exactly 1 (E tr(TT*) = n^2).  The
        # chains are independent, so the spread of the 20 per-chain means
        # gives the standard error.  Dropping the log-coordinate Jacobian
        # ((b-1) dy for b dy) reads z = -78 here; over 130 seeds the exact
        # sampler read |z| <= 4.35, with one seed of 130 above 4.
        cfg = GasConfig(8, GFunction("identity"), Potential.linear(1.0), 1.0)
        _, diag = mcmc_sample(cfg, steps=2000, burn_in=1000, seed=1,
                              record_every=10, chains=20)
        means = diag.trace.mean(axis=(1, 2))
        z = (means.mean() - 1.0) / (means.std(ddof=1) / np.sqrt(means.size))
        assert abs(z) <= 4.0

    def test_two_particle_histogram_vs_quadrature(self):
        # brute-force 2-D quadrature of exp(-2(x+y)) (x-y)^2 on a 50x50 grid
        cfg = GasConfig(2, GFunction("identity"), Potential.linear(1.0), 1.0)
        edges = np.linspace(0.0, 4.0, 51)
        sub = 6
        step = 4.0 / 50 / sub
        cell = np.zeros((50, 50))
        for i in range(50):
            xs = edges[i] + (np.arange(sub) + 0.5) * step
            for j in range(50):
                ys = edges[j] + (np.arange(sub) + 0.5) * step
                xg, yg = np.meshgrid(xs, ys, indexing="ij")
                cell[i, j] = np.sum(np.exp(-2.0 * (xg + yg)) * (xg - yg) ** 2)
        cell /= cell.sum()
        _, diag = mcmc_sample(cfg, steps=250_000, burn_in=4000, seed=77,
                              record_every=1)
        pts = np.vstack([diag.trace[0], diag.trace[0, :, ::-1]])
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[edges, edges])
        hist /= hist.sum()
        tv = 0.5 * np.abs(hist - cell).sum()
        assert tv <= 0.05

    def test_cross_method_vs_matrix_model(self):
        # theta=1 gas at n=32 is exactly the law of the matrix spectra
        cfg = GasConfig(32, GFunction("identity"), Potential.linear(1.0), 1.0)
        _, diag = mcmc_sample(cfg, steps=1200, burn_in=600, seed=300,
                              record_every=10, chains=8)
        mc = EmpiricalMeasure(diag.trace)
        p = en.EnsembleParams(n=32, theta=1.0, b=1.0, seed=5)
        mat = EmpiricalMeasure(np.concatenate(
            [en.sample_spectrum(p, k).points for k in range(50)]))
        assert w1_distance(mc, mat) <= 0.05
