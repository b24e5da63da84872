"""lawground benchmark: one command, every workload, every metric.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Prints host facts, each check, each metric with its unit, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones, and the spans and per-layer table are written to .bench_work/traces/.
Run from anywhere inside a lawground checkout; everything it writes stays
under the checkout's .bench_work/.
"""

import os

# pin BLAS to one thread before anything imports numpy; lawground.cli sets
# this pin too late to take effect, so the benchmark sets its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train-desk64", "eval-desk64", "eval-res128")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in ("src/lawground/__init__.py", "configs/desk64.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lawground checkout ({', '.join(missing)} "
              f"missing under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import host
    import workloads

    facts = host.facts()
    print("host: " + json.dumps(facts, sort_keys=True))
    if facts["blas_threads"] != 1:
        print(f"WARNING: OpenBLAS runs {facts['blas_threads']} threads, "
              f"not 1; timings are not comparable", file=sys.stderr)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    work = WORK / f"run-{os.getpid()}"
    try:
        for name in names:
            outcome, table = workloads.run(
                workloads.WORKLOADS[name], args.seed, args.seconds,
                bool(args.trace), ROOT, work / name, WORK / "traces")
            print(f"== {name} (seed {args.seed}, {outcome.attempted} "
                  f"operations, {outcome.failed} failed)")
            for check, (problems, detail) in outcome.checks.items():
                status = "ok" if not problems else "FAIL"
                print(f"check {status:4s} {check}" + (f" [{detail}]"
                                                      if detail else ""))
                for problem in problems[:10]:
                    print(f"    {problem}")
                correct &= not problems
            if table:
                print(table, end="")
            for key, value in outcome.info.items():
                print(f"  {key}: {value}")
            for metric, (value, unit) in outcome.metrics.items():
                print(f"  {metric:30s} {value:14.4f} {unit}")
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": unit}
            attempted += outcome.attempted
            failed += outcome.failed
            record = {"workload": name, "seed": args.seed,
                      "trace": args.trace, "seconds": args.seconds,
                      "host": facts, "metrics": outcome.metrics,
                      "checks": outcome.checks, "info": outcome.info,
                      "raw": outcome.raw}
            (WORK / "results").mkdir(parents=True, exist_ok=True)
            (WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}"
             ".json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                 encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
