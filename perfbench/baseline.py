"""The ROADMAP baseline rows, each measured once as a traced span, with the
ratio to the ROADMAP's hand-timed value and the per-layer metric of the
workloads that carries the same work.

    python3 perfbench/baseline.py      # about 30 s

Sizes are the ROADMAP's.  One call per row: read the ratios as a rough
line-up between machines, not as a measurement with a spread.
"""

import sys

import numpy as np

import harness
import spans
import workloads
from biortho import dh_law, ensemble, equilibrium, gas_sampler, special
from biortho.gas_sampler import GasConfig, GFunction, Potential


def rows():
    tau = np.random.default_rng(0).uniform(-0.99, 40.0, 32_000)
    law = {}

    def build():
        law["law"] = dh_law.DHLaw()

    chain_cfg = GasConfig(n=32, g=GFunction("identity"), v=Potential.linear(1.0), b=1.0)
    # (label, ROADMAP seconds, span name, per-layer metric, call)
    return (
        ("lambert_w0_cut_above_log, 32k points", 0.17, "special.lambert_w0_cut_above_log",
         "special.self_s (law)", lambda: special.lambert_w0_cut_above_log(tau)),
        ("DHLaw() build", 0.18, "dh_law.init", "dh_law.build_s", build),
        ("DHLaw.cdf, 2000 points", 0.13, "dh_law.cdf", "dh_law.cdf_s",
         lambda: law["law"].cdf(np.linspace(0.001, np.e - 0.001, 2000))),
        ("DHLaw.quantile, 2000 points", 9.2, "dh_law.quantile", "dh_law.quantile_s",
         lambda: law["law"].quantile((np.arange(2000) + 0.5) / 2000)),
        ("minimize_I, 400 nodes, g=log, tol 1e-4", 2.1, "equilibrium.minimize_I",
         "job.one-shot.cli_rate_s",
         lambda: equilibrium.minimize_I(workloads.dh_config(),
                                        equilibrium.make_grid(400, 1e-4, 4.0), tol=1e-4)),
        ("minimize_I, 600-node deep grid", 6.3, "equilibrium.minimize_I",
         "(reference only)",
         lambda: equilibrium.minimize_I(workloads.dh_config(),
                                        equilibrium.make_grid(600, 1e-8, 4.0,
                                                              geo_fraction=0.5), tol=1e-4)),
        ("mcmc_sample, n=32, 2300 sweeps", 1.8, "gas_sampler.mcmc_sample",
         "gas_sampler.self_s / chains",
         lambda: gas_sampler.mcmc_sample(chain_cfg, steps=1500, burn_in=800, seed=1000,
                                         record_every=10)),
        ("sample_spectrum, n=512", 0.10, "ensemble.sample_spectrum",
         "(seed sweep only)",
         lambda: ensemble.sample_spectrum(
             ensemble.EnsembleParams(n=512, theta=0.0, b=1.0, seed=99), 0)),
    )


def main():
    print(f"{'row':<42} {'ROADMAP':>9} {'here':>9} {'ratio':>7}  workload metric")
    for label, roadmap_s, span_name, metric, call in rows():
        tracer = spans.Tracer()
        with spans.installed(tracer), tracer.job_span(label):
            call()
        here = next(s.duration for s in tracer.spans if s.name == span_name)
        print(f"{label:<42} {roadmap_s:>8.2f}s {here:>8.3f}s {here / roadmap_s:>7.2f}  {metric}",
              flush=True)
    print(f"\n{harness.environment(None)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
