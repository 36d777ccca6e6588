"""Benchmark entry point.

    python3 perfbench/run.py --workload law --seed 1 --seconds 55 --trace 0

Runs one workload in this process and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from a traced
pass.  The full record (environment, every pass, gate details, spans) is
written to .perfbench_run/ in the checkout.  Exits 2 without a result when
the program cannot be imported from the checkout's src/.
"""

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("law", "one-shot")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; omitted, the acceptance suite's pinned seeds")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src" / "biortho"
    if not (src / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    import harness
    if Path(harness.biortho.__file__).resolve().parent != src.resolve():
        print(f"error: biortho imported from {harness.biortho.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed)
        return 0
    summary, record = harness.run(args.workload, args.seed, args.seconds,
                                  args.trace, Path(__file__).resolve())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for job, detail in record["gates"].items():
        print(f"{job:<16} {detail}")
    for index, job, why in record["failures"]:
        print(f"FAILED pass {index} {job}: {why}")
    print(json.dumps({"environment": record["environment"],
                      "setup_samples_s": record["setup_samples_s"],
                      "host_samples_s": record["host_samples_s"],
                      "measured_s": record.get("measured_s"),
                      "pass_wall_s": record["pass_wall_s"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
