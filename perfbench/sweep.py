"""Seed sweep of the stochastic criteria, outside the timed runs.

    python3 perfbench/sweep.py                 # about 7 min

Runs the stochastic criteria's jobs at the acceptance suite's own counts
(criterion 3: 50 spectra at n=256; criterion 4: 20 at n=512; criterion 6:
20 spectra at n=512 and 20 Metropolis chains; criterion 9: 15 spectra per
size) for each workload seed from 1 to 6 and reports each gate's pass
rate.  The pinned seeds of the acceptance suite are not part of the sweep.
"""

import sys

import harness  # noqa: F401  (puts the checkout's src/ on sys.path)
import workloads

# (criterion, job) pairs whose inputs are random
GATES = (("3", "mean_spectrum"), ("4", "largest"), ("6a", "theta1_spectra"),
         ("6b", "gas_chains"), ("9", "empirical_rate"))
SEEDS = range(1, 7)


def main():
    jobs = {job.name: job for job in workloads.SWEEP}
    passed = {crit: 0 for crit, _ in GATES}
    for seed in SEEDS:
        inputs = workloads.sample_inputs(seed)
        for crit, name in GATES:
            job = jobs[name]
            ok, detail = job.check(job.run(inputs, {}), inputs, {})
            passed[crit] += ok
            print(f"seed {seed} criterion {crit:<3} {'PASS' if ok else 'FAIL'}  {detail}",
                  flush=True)
    print()
    for crit, name in GATES:
        print(f"criterion {crit:<3} ({name}): passed {passed[crit]}/{len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
