"""The package's argument contract (special.elementwise, special.check_count):
a scalar in gives a Python number out and an array in an array of its
shape, and every count argument and stream key (seed, trial, stream) is
an integer checked by name."""

import os

import numpy as np
import pytest

from biortho import cli, dh_law, ensemble, equilibrium, measures, proof_lab, special
from biortho.gas_sampler import GasConfig, GFunction, Potential, mcmc_sample

_CFG = GasConfig(2, GFunction("log"), Potential.linear(1.0))
_REPORT = equilibrium.minimize_I(_CFG, equilibrium.make_grid(40, 1e-3, 4.0), tol=1e-4)
_LAW = dh_law.DHLaw()

# (evaluator, three arguments, the Python type of one value)
EVALUATORS = {
    "lambert_w0_real": (special.lambert_w0_real, [-0.3, 0.5, 40.0], float),
    "lambert_w0_complex": (special.lambert_w0_complex, [-2 + 1j, 0.5j, 3 + 0j], complex),
    "lambert_w0_cut_above": (special.lambert_w0_cut_above, [-0.5, -2.0, -1e9], complex),
    "lambert_w0_cut_above_log": (special.lambert_w0_cut_above_log, [-0.5, 0.0, 30.0],
                                 complex),
    "dh_density": (dh_law.dh_density, [-1.0, 0.3, 2.0], float),
    "DHLaw.cdf": (_LAW.cdf, [0.01, 1.0, 3.0], float),
    "DHLaw.quantile": (_LAW.quantile, [0.01, 0.5, 0.99], float),
    "dh_stieltjes": (dh_law.dh_stieltjes, [1j, 2 + 0.5j, -1 + 1e-3j], complex),
    "dh_r_transform": (dh_law.dh_r_transform, [-0.5, 1e-4, 0.9], float),
    "dh_r_transform-complex": (dh_law.dh_r_transform, [0.5j, 1e-4 + 0j, -0.3 + 0.3j],
                               complex),
    "rate_J_largest": (lambda x: equilibrium.rate_J_largest(x, _REPORT, _CFG),
                       [1.0, _REPORT.b_eq, 3.5], float),
    "pair_kernel_lower": (lambda t: measures.pair_kernel_lower(t, _CFG),
                          [0.1, 1.0, 10.0], float),
    "pair_kernel_f": (lambda x: measures.pair_kernel_f(x, x + 1.0, _CFG),
                      [0.1, 1.0, 10.0], float),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_scalar_in_number_out_array_in_array_out(name):
    fn, args, kind = EVALUATORS[name]
    values = fn(np.array(args))
    assert isinstance(values, np.ndarray) and values.shape == (3,)
    for k, x in enumerate(args):
        for scalar in (x, np.array(x)):
            out = fn(scalar)
            assert type(out) is kind
            # the same bits as the batch: no value depends on its batch
            assert np.array_equal(out, values[k], equal_nan=True)


def _sigma():
    return proof_lab.uniform_nice(1.0, 2.0)


def _rate_largest(points):
    args = cli.build_parser().parse_args(
        ["rate-largest", "--grid", "40", "--domain", "1e-3,4", "--out", os.devnull])
    args.points = points
    return cli._cmd_rate_largest(args)


_PARAMS = ensemble.EnsembleParams(n=4, theta=0.0, b=1.0, seed=0)

# (call with the count, the argument's name, a valid count)
COUNTS = {
    "make_grid": (lambda n: equilibrium.make_grid(n, 1e-3, 4.0), "n", 5),
    "build_quantile_grid": (lambda n: proof_lab.build_quantile_grid(_sigma(), n), "n", 5),
    "configuration_bl_check": (lambda m: proof_lab.configuration_bl_check(
        proof_lab.build_quantile_grid(_sigma(), 4), _sigma(), m=m), "m", 5),
    "nice_energy": (lambda n0: proof_lab.nice_energy(_sigma(), n0=n0, max_doublings=0),
                    "n0", 8),
    "dh_moment_exact": (dh_law.dh_moment_exact, "k", 3),
    "moment_numeric": (_LAW.moment_numeric, "k", 3),
    "minimize_I": (lambda m: equilibrium.minimize_I(
        _CFG, equilibrium.make_grid(40, 1e-3, 4.0), tol=1e-4, max_iter=m), "max_iter", 5),
    "nice_energy-max_doublings": (lambda d: proof_lab.nice_energy(
        _sigma(), n0=8, tol=1.0, max_doublings=d), "max_doublings", 2),
    "EnsembleParams": (lambda s: ensemble.EnsembleParams(4, 0.0, 1.0, s), "seed", 3),
    "rng_stream-seed": (ensemble.rng_stream, "seed", 3),
    "rng_stream-stream": (lambda k: ensemble.rng_stream(0, k), "stream", 3),
    "sample_spectrum": (lambda k: ensemble.sample_spectrum(_PARAMS, k), "trial", 3),
    "mcmc_sample": (lambda s: mcmc_sample(GasConfig(2, GFunction("identity"),
                                                    Potential.linear(1.0)),
                                          steps=1, burn_in=1, seed=s), "seed", 3),
    "rate-largest": (_rate_largest, "--points", 5),
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("bad", [2.5, 2.0, "3"])
def test_count_must_be_an_integer(name, bad):
    fn, arg, _ = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
        fn(bad)


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_integer_count_passes(name):
    fn, _, good = COUNTS[name]
    fn(np.int64(good))


_GAS = GasConfig(2, GFunction("identity"), Potential.linear(1.0))

# (call with the key, the argument's name): a key past 64 bits would wrap
# onto another stream, so each raises before any draw
KEYS = {
    "rng_stream-seed": (ensemble.rng_stream, "seed"),
    "rng_stream-stream": (lambda k: ensemble.rng_stream(5, k), "stream"),
    "EnsembleParams": (lambda s: ensemble.EnsembleParams(4, 0.0, 1.0, s), "seed"),
    "sample_spectrum": (lambda k: ensemble.sample_spectrum(_PARAMS, k), "trial"),
    "mcmc_sample": (lambda s: mcmc_sample(_GAS, steps=1, burn_in=1, seed=s), "seed"),
}


@pytest.mark.parametrize("name", KEYS)
def test_key_past_64_bits_rejected(name):
    fn, arg = KEYS[name]
    with pytest.raises(ValueError, match=f"^{arg} must be an integer in "):
        fn(2 ** 64)
    fn(np.uint64(2 ** 64 - 1))              # the largest key still draws


@pytest.mark.parametrize("argv", [["sample-matrix", "--n", "4"],
                                  ["sample-gas", "--n", "4", "--steps", "5", "--burn-in", "5"]])
def test_cli_seed_past_64_bits_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = cli.dispatch(argv + ["--seed", str(2 ** 64), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == (f"error: seed must be an integer in [{-2 ** 63}, {2 ** 64 - 1}], "
                            f"not {2 ** 64}\n")
