"""Command-line front end for the experiment suites.

Exit codes: 0 on full success, 1 on configuration errors (a malformed
command line among them), 2 when any trial reported divergence, 141 (the
shell's code for SIGPIPE) when the reader of standard output closed it
before the table was written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .datagen import save_observations
from .experiments import ConfigError, PRESETS, build_config, run_experiment
from .ratings import ingest_ratings


CLOSED_PIPE = 141


# the task each command runs unless its settings promote it (see ExperimentConfig)
_DEFAULT_TASKS = {"matcomp": "matcomp_synth", "cs": "cs_recovery", "diagnose": "diagnose"}


def _add_common(parser, trials=True):
    parser.add_argument("--config", metavar="PATH", help="configuration file (key = value sections)")
    if trials:  # diagnose runs no trials
        parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        parser.add_argument("--seed", type=int, help="base seed; trial t uses seed + t")
        parser.add_argument("--trials", type=int, help="number of trials per grid cell")
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), help="output format")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it exits 1: argparse's own
    exit code, 2, is the code for a diverged trial. Subcommand parsers
    inherit the class, so none of them takes a prefix of a flag either."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="triosplit",
        description="Splitting-solver experiment runner for matrix completion and sparse recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("matcomp", help="matrix-completion experiments")
    _add_common(mc)
    mc.add_argument("--methods", help="comma list from dys,drs,svp,svt")
    mc.add_argument("--n", type=int, help="matrix size (synthetic)")
    mc.add_argument("--r", type=int, help="target rank (synthetic)")
    mc.add_argument("--p", type=float, help="sampling ratio (synthetic)")
    mc.add_argument("--lam", type=float, help="quadratic tail weight")
    mc.add_argument("--k", dest="k_init", type=float, help="initial step multiplier")
    mc.add_argument("--max-iter", dest="max_iter", type=int)
    mc.add_argument("--ratings", dest="ratings_path", metavar="PATH",
                    help="ratings file; switches to the held-out ratings task")
    mc.add_argument("--ranks", help="comma list of ranks (ratings task)")
    mc.add_argument("--test-fraction", dest="test_fraction", type=float)

    cs = sub.add_parser("cs", help="sparse-recovery experiments")
    _add_common(cs)
    cs.add_argument("--methods", help="comma list from admm,dca,dys")
    cs.add_argument("--m", type=int, help="measurement count")
    cs.add_argument("--n", type=int, help="signal length")
    cs.add_argument("--s", dest="sparsity_levels", help="comma list of sparsity levels")
    cs.add_argument("--F", dest="refinement", type=int, help="cosine-frame refinement factor")
    cs.add_argument("--min-sep", dest="min_sep", type=int, help="support separation (default 2F)")
    cs.add_argument("--sigma", dest="sigmas", help="comma list of noise levels")
    cs.add_argument("--lam", type=float, help="sparsity weight for every method")
    cs.add_argument("--k", dest="k_init", type=float, help="initial step multiplier")
    cs.add_argument("--max-iter", dest="max_iter", type=int)

    ing = sub.add_parser("ingest", help="split a ratings file into train/test observation files")
    ing.add_argument("path", help="ratings file (UserID::MovieID::Rating::Timestamp lines)")
    ing.add_argument("--split-seed", type=int, default=0)
    ing.add_argument("--test-fraction", type=float, default=0.2)
    ing.add_argument("--out", required=True, metavar="PREFIX",
                     help="writes PREFIX.train.txt and PREFIX.test.txt")

    dg = sub.add_parser("diagnose", help="step-size threshold report")
    _add_common(dg, trials=False)
    dg.add_argument("--L", type=float, help="smoothness constant of the first term (default 1)")
    dg.add_argument("--l", type=float, help="weak-convexity modulus of the first term (default 0)")
    dg.add_argument("--beta", type=float, help="smoothness constant of the third term (default 1)")
    return parser


def _ingest(args):
    train, test = ingest_ratings(args.path, args.split_seed, args.test_fraction)
    save_observations(args.out + ".train.txt", train)
    save_observations(args.out + ".test.txt", test)
    print(f"train: {len(train)} entries -> {args.out}.train.txt")
    print(f"test: {len(test)} entries -> {args.out}.test.txt")
    return 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "ingest":
            return _ingest(args)
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config", "preset")}
        config = build_config(preset=getattr(args, "preset", None), config_path=args.config,
                              overrides=overrides, base={"task": _DEFAULT_TASKS[args.command]})
        if config.task.split("_")[0] != args.command:
            raise ConfigError(f"task {config.task} is not a {args.command} task")
        table = run_experiment(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.out:
        table.write(config.out, config.fmt)
    else:
        try:
            table.write(sys.stdout, config.fmt)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone (`... | head -1`): send what is still
            # buffered to devnull so the exit flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return CLOSED_PIPE
    return 2 if table.any_diverged else 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
