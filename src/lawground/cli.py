"""Command-line entry points: gen / train / eval / inspect / ablate.

Exit codes: 0 ok, 2 configuration or dataset error, 3 numeric failure.
"""

import argparse
import sys

from .config import TrainConfig, load_config, validate
from .errors import ConfigError, DataError, LawgroundError, NumericError
from .synthground import generate_dataset
from . import train as training


def _load_cfg(args):
    cfg = TrainConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def cmd_gen(args):
    stats = generate_dataset(args.out, seed=args.seed or 0,
                             n_train=args.n_train, n_val=args.n_val,
                             n_test=args.n_test, resolution=args.res)
    print(f"wrote dataset to {args.out}: "
          + ", ".join(f"{k}={v}" for k, v in stats["counts"].items())
          + f", skipped={stats['skipped']}")
    return 0


def cmd_train(args):
    cfg = validate(_load_cfg(args))
    result = training.train(cfg, args.out)
    if result.last_report is not None:
        rep = result.last_report
        print(f"final val: prec@0.5={rep['prec_at_05']:.4f}"
              + (f", miou={rep['miou']:.4f}" if rep["miou"] is not None else ""))
        print(f"best step {result.best_step} (selection metric "
              f"{result.best_metric:.4f})")
    print(f"artifacts in {result.out_dir}")
    return 0


def _fmt4(value):
    """A metric to 4 places, or n/a for an empty subset."""
    return "n/a" if value is None else f"{value:.4f}"


def cmd_eval(args):
    data_path = None
    if args.config:
        data_path = load_config(args.config).data_path or None
    report = training.evaluate_checkpoint(args.ckpt, data_path, args.split,
                                          out_dir=args.out)
    for name, rep in ((args.split, report),
                      (f"{args.split}/relational", report["relational"])):
        print(f"{name}: n={rep['count']} prec@0.5={_fmt4(rep['prec_at_05'])} "
              f"miou={_fmt4(rep['miou'])}")
    for bucket in report["buckets"]:
        print(f"  words {bucket['bucket']}: n={bucket['count']} "
              f"prec@0.5={_fmt4(bucket['prec_at_05'])}")
    return 0


def cmd_inspect(args):
    data_path = None
    if args.config:
        data_path = load_config(args.config).data_path or None
    out = training.inspect(args.ckpt, data_path, args.sample_id, args.out)
    print(f"inspection artifacts in {out}")
    return 0


def cmd_ablate(args):
    cfg = validate(_load_cfg(args))
    rows = training.ablate(cfg, args.out)
    print("lawg lap mth  prec@0.5  prec@0.5(relational)")
    for r in rows:
        print(f"{r['lawg']:4d} {r['lap']:3d} {r['mth']:3d}  "
              f"{r['prec_at_05']:.4f}     {r['prec_at_05_relational']:.4f}")
    print(f"table in {args.out}/ablation.csv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lawground",
        description="expression-adaptive weight generation for box+mask "
                    "grounding on synthetic scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic grounding dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=4000)
    p.add_argument("--n-val", type=int, default=500)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--res", type=int, default=64)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="val",
                   choices=("train", "val", "test"))
    p.add_argument("--config", help="optional config whose data.path overrides "
                                    "the checkpoint echo")
    p.add_argument("--out", default=None, help="directory for metric CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump attention maps and prediction "
                                       "artifacts for one sample")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sample-id", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="optional config whose data.path overrides "
                                    "the checkpoint echo")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("ablate", help="train and compare the component arms")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LawgroundError as exc:  # numeric/tape/shape failures
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
