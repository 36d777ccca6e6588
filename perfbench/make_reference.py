"""Regenerate or check reference.json, the solver outputs that the seed
sweep's gates compare against, so that the sweep does no solver work of
its own:

* theta1_minimizer -- criterion 6's theta=1 minimizer on 400 nodes over
  [1e-4, 6] (W1 <= 0.05 against n=512 spectra);
* deep_objective -- criterion 9's 600-node deep-grid objective.

    python3 perfbench/make_reference.py           # rewrite reference.json
    python3 perfbench/make_reference.py --check   # recompute and compare

--check exits 1 if any value differs from the stored one by more than
1e-12 relative.
"""

import argparse
import json
import sys

import numpy as np

import harness  # noqa: F401  (puts the checkout's src/ on sys.path)
from biortho import equilibrium
from workloads import REFERENCE, dh_config, id_config

TOLERANCE = 1e-12


def compute():
    theta1 = equilibrium.minimize_I(id_config(), equilibrium.make_grid(400, 1e-4, 6.0),
                                    tol=1e-4, max_iter=200_000)
    deep = equilibrium.minimize_I(dh_config(),
                                  equilibrium.make_grid(600, 1e-8, 4.0, geo_fraction=0.5),
                                  tol=1e-4, max_iter=200_000)
    if not (theta1.converged and deep.converged):
        raise RuntimeError("a reference solve did not converge")
    return {
        "theta1_minimizer": {"nodes": theta1.minimizer.nodes.tolist(),
                             "weights": theta1.minimizer.weights.tolist()},
        "deep_objective": deep.objective,
    }


def deviations(stored, fresh):
    def rel(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    return {
        "theta1_minimizer.nodes": rel(stored["theta1_minimizer"]["nodes"],
                                      fresh["theta1_minimizer"]["nodes"]),
        "theta1_minimizer.weights": rel(stored["theta1_minimizer"]["weights"],
                                        fresh["theta1_minimizer"]["weights"]),
        "deep_objective": rel(stored["deep_objective"], fresh["deep_objective"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="regenerate or check reference.json")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    fresh = compute()
    if not args.check:
        REFERENCE.write_text(json.dumps(fresh) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    devs = deviations(json.loads(REFERENCE.read_text()), fresh)
    for key, dev in devs.items():
        print(f"{key:<28} max relative deviation {dev:.2e}")
    ok = all(dev <= TOLERANCE for dev in devs.values())
    print("reference matches" if ok else "REFERENCE MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
