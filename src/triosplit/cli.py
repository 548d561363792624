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
from .experiments import ConfigError, PRESETS, _coerce, build_config, run_experiment
from .ratings import ingest_ratings


CLOSED_PIPE = 141


# the task each command runs unless its settings promote it (see ExperimentConfig)
_DEFAULT_TASKS = {"matcomp": "matcomp_synth", "cs": "cs_recovery", "diagnose": "diagnose"}


def _setting(parser, flag, **kwargs):
    """Add a flag that sets one numeric ExperimentConfig field. Its type is
    that field's own coercion, so the flag reads a value as a config file
    line does ('1e3' is 1000 for an int field), and the parser reports a
    value it rejects, prefixed with the command and the flag."""
    action = parser.add_argument(flag, **kwargs)

    def parse(text):
        try:
            return _coerce(action.dest, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    action.type = parse


def _add_common(parser, trials=True):
    parser.add_argument("--config", metavar="PATH", help="configuration file (key = value sections)")
    if trials:  # diagnose runs no trials
        parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        _setting(parser, "--seed", help="base seed; trial t uses seed + t")
        _setting(parser, "--trials", help="number of trials per grid cell")
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
    _setting(mc, "--n", help="matrix size (synthetic)")
    _setting(mc, "--r", help="target rank (synthetic)")
    _setting(mc, "--p", help="sampling ratio (synthetic)")
    _setting(mc, "--lam", help="quadratic tail weight")
    _setting(mc, "--k", dest="k_init", help="initial step multiplier")
    _setting(mc, "--max-iter", dest="max_iter")
    mc.add_argument("--ratings", dest="ratings_path", metavar="PATH",
                    help="ratings file; switches to the held-out ratings task")
    mc.add_argument("--ranks", help="comma list of ranks (ratings task)")
    _setting(mc, "--test-fraction", dest="test_fraction")

    cs = sub.add_parser("cs", help="sparse-recovery experiments")
    _add_common(cs)
    cs.add_argument("--methods", help="comma list from admm,dca,dys")
    _setting(cs, "--m", help="measurement count")
    _setting(cs, "--n", help="signal length")
    cs.add_argument("--s", dest="sparsity_levels", help="comma list of sparsity levels")
    _setting(cs, "--F", dest="refinement", help="cosine-frame refinement factor")
    _setting(cs, "--min-sep", dest="min_sep", help="support separation (default 2F)")
    cs.add_argument("--sigma", dest="sigmas", help="comma list of noise levels")
    _setting(cs, "--lam", help="sparsity weight for every method")
    _setting(cs, "--k", dest="k_init", help="initial step multiplier")
    _setting(cs, "--max-iter", dest="max_iter")

    ing = sub.add_parser("ingest", help="split a ratings file into train/test observation files")
    ing.add_argument("path", help="ratings file (UserID::MovieID::Rating::Timestamp lines)")
    ing.add_argument("--split-seed", type=int, default=0)
    ing.add_argument("--test-fraction", type=float, default=0.2)
    ing.add_argument("--out", required=True, metavar="PREFIX",
                     help="writes PREFIX.train.txt and PREFIX.test.txt")

    dg = sub.add_parser("diagnose", help="step-size threshold report")
    _add_common(dg, trials=False)
    _setting(dg, "--L", help="smoothness constant of the first term (default 1)")
    _setting(dg, "--l", help="weak-convexity modulus of the first term (default 0)")
    _setting(dg, "--beta", help="smoothness constant of the third term (default 1)")
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
