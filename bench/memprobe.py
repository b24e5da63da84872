"""One round of a workload in a fresh interpreter, for its peak memory.

    python3 bench/memprobe.py --workload NAME --seed N --data DIR --out DIR

Repeats, through lawground's public functions, one round of what the
workload's run did on the same dataset: `train-desk64` one `train.train`
call of the timed rounds; the eval workloads the set-up's checkpoint
warm-up followed by one `train.evaluate_checkpoint` of the test split.
Prints as its last line one JSON object with `peak_rss_mb` (this process's
`VmHWM`) and digests of what it produced, which the calling run compares
with its own outputs.

A fresh process is used because the peak of the benchmark's own process
depends on how much garbage earlier `train.train` calls left for the
cyclic collector, which moves with the interpreter's hash seed; the first
call in a new interpreter does not. The peak is read from `VmHWM` in
/proc/self/status, the high-water mark of this program's own address
space: `ru_maxrss` would not do, because Linux carries it across exec, so
it starts at the resident size of the parent that spawned the probe.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from lawground import train as training

    w = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    result = {}
    if w.kind == "train":
        cfg = workloads.protocol(ROOT, args.data, args.seed, w.resolution,
                                 steps=workloads.TRAIN_STEPS)
        training.train(cfg, out)
        result["files"] = {f: workloads.digest(out / f)
                           for f in workloads.ROUND_FILES}
    else:
        cfg = workloads.protocol(ROOT, args.data, args.seed, w.resolution,
                                 steps=workloads.WARMUP_STEPS,
                                 batch_size=w.warmup_batch)
        training.train(cfg, out)
        report = training.evaluate_checkpoint(out / "last.ckpt", args.data,
                                              "test")
        result["files"] = {"last.ckpt": workloads.digest(out / "last.ckpt")}
        result["report"] = workloads.report_digest(report)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
