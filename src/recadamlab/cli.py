"""Command-line entry points.

Subcommands: pretrain, finetune, sweep, report.  Exit codes: 0 success,
2 configuration error (an unreadable theta_star checkpoint too), 3 numeric
failure, 4 no data (a damaged file in a completed run too).
"""

import argparse
import sys
from pathlib import Path

from .config import load_config, load_grid
from .errors import ConfigError, NoDataError, NumericError
from .harness import _read_theta_star, finetune, pretrain, report, sweep
# perfbench/tracer.py wraps read_vector under this module's name, so it stays importable here
from .storage import read_vector  # noqa: F401


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recadamlab",
        description="Recall-and-learn optimizer experiments on synthetic transfer tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train theta_star on the source task")
    p.add_argument("--config", required=True)

    p = sub.add_parser("finetune", help="fine-tune on the target task")
    p.add_argument("--config", required=True)
    p.add_argument("--theta-star", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", help="run a (k, t0, gamma, seed) grid")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("report", help="aggregate run directories into CSV reports")
    p.add_argument("--dir", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pretrain":
            cfg = load_config(args.config)
            theta_star, trace = pretrain(cfg)
            print(f"pretrained {theta_star.size} parameters for {len(trace)} steps; "
                  f"final source loss {trace.column('target_loss')[-1]:.6g}")
            print(f"wrote {Path(cfg.output_dir) / 'theta_star.bin'}")
        elif args.command == "finetune":
            cfg = load_config(args.config)
            theta_star = _read_theta_star(args.theta_star)
            seed = cfg.seeds[0] if args.seed is None else args.seed
            run_dir = Path(cfg.output_dir) / "runs" / f"{cfg.config_hash()}-s{seed}"
            trace, summary = finetune(cfg, theta_star, seed, run_dir=run_dir)
            print(f"fine-tuned {len(trace)} steps (seed {seed}); "
                  f"final target loss {summary.final_target_loss:.6g}, "
                  f"dist to pretrained {summary.final_dist_to_pretrained:.6g}")
            print(f"wrote {run_dir / 'trace.csv'}")
        elif args.command == "sweep":
            cfg = load_config(args.config)
            summaries = sweep(cfg, load_grid(args.grid))
            print(f"sweep finished: {len(summaries)} successful runs")
            best_path = Path(cfg.output_dir) / "best_config.txt"
            if best_path.exists():
                print(best_path.read_text().strip())
            print(f"wrote {Path(cfg.output_dir) / 'summaries.csv'}")
        else:
            for path in report(args.dir):
                print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except NoDataError as exc:
        print(f"no data: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
