"""One command for every workload: end-to-end metrics with units, and with
--trace the per-layer metrics of a traced run.

    python3 perfbench/report.py --seed 1            # about 2 min
    python3 perfbench/report.py --seed 1 --trace    # adds traced runs

Each run is a fresh `run.py` process of BENCHMARK.json's `run_seconds`.
failed_ratio is failed jobs over jobs attempted, with both counts.  The
traced table shows, per workload, the layers' self times plus the harness
residue next to the traced pass's wall time as the pass loop clocked it
(the sum of the workload's job.* metrics).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(SECONDS), "--trace", str(int(trace))]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-2]:
        if line.startswith("FAILED"):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark report for all workloads")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    print(f"{'workload':<10} {'wall_s':>12} {'setup_s':>12} {'peak_rss_mb':>14} "
          f"{'failed_ratio':>24}")
    ok = True
    for w in WORKLOADS:
        r = run(w, args.seed, trace=False)
        m = r["metrics"]
        ratio = f"{r['failed'] / r['attempted']:.3f} ({r['failed']}/{r['attempted']})"
        print(f"{w:<10} {m['wall_s']['value']:>10.3f} s {m['setup_s']['value']:>10.3f} s "
              f"{m['peak_rss_mb']['value']:>11.1f} MB {ratio:>24}", flush=True)
        ok &= r["correct"]
    if args.trace:
        traced = {w: run(w, args.seed, trace=True) for w in WORKLOADS}
        names = list(traced[WORKLOADS[0]]["metrics"])
        print()
        print(f"{'per-layer metric':<40}" + "".join(f"{w:>14}" for w in WORKLOADS))
        for name in names:
            unit = traced[WORKLOADS[0]]["metrics"][name]["unit"]
            print(f"{name + ' [' + unit + ']':<40}"
                  + "".join(f"{traced[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS))
        print()
        for w in WORKLOADS:
            m = {k: v["value"] for k, v in traced[w]["metrics"].items()}
            layers = sum(v for k, v in m.items()
                         if k.endswith(".self_s") and k != "harness.self_s")
            clock = sum(v for k, v in m.items() if k.startswith(f"job.{w}."))
            print(f"{w:<10} layer self {layers:.6f} s + harness residue "
                  f"{m['harness.self_s']:.6f} s = {layers + m['harness.self_s']:.6f} s; "
                  f"pass clock {clock:.6f} s; overhead {m['trace.overhead_ratio']:+.3f}")
            ok &= traced[w]["correct"]
    print()
    print("all outputs correct" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
