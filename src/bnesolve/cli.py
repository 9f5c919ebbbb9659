"""Command-line interface.

Subcommands: ``solve`` (run a config or preset), ``evaluate`` (replay a
stored run: score and certify it again with ``runner.replay`` and compare
with its record), ``sweep`` (discretization sweep), ``preset list``, and
``probe-vs`` (variational-stability probe of a converged profile against its
shaded collusive deviation).  This module parses flags and prints; reading
and writing run directories is ``runner``'s.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .config import RunConfig, build_problem, config_from_mapping, load_config
from .presets import get_preset, preset_names
from .runner import prepare_out_dir, replay, run_batch, run_sweep, solve
from .verify import collusive_profile, vs_probe

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(record: dict):
        parts = [f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in record.items() if v is not None]
        print(" ".join(parts), file=sys.stderr)

    return emit


def _load_cfg(args) -> RunConfig:
    overrides = {}
    for key in ("seed", "runs"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if getattr(args, "n_samples", None) is not None:
        overrides["eval_samples"] = args.n_samples
    if args.preset is not None:
        return config_from_mapping({**get_preset(args.preset), **overrides})
    base = load_config(args.config)
    return config_from_mapping({**base.__dict__, **overrides}) if overrides else base


def _cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    problem = build_problem(cfg)
    out = args.out or f"out_{cfg.name or cfg.mechanism}"
    summary = run_batch(problem, out, runs=args.runs, force=args.force,
                        progress=_progress_printer(args.quiet))
    ok = [r for r in summary.rows if r["status"] == "ok"]
    certified = [r for r in ok if r["termination"] == "converged"]
    print(f"{len(ok)}/{len(summary.rows)} runs ok, {len(certified)} certified; "
          f"mean max_loss={summary.mean('max_loss'):.3e}; artifacts in {summary.out_dir}")
    for key in sorted(summary.aggregates["mean"]):
        if key.startswith(("L_", "L2_", "revenue")):
            print(f"  {key}: {summary.mean(key):.4f} ({summary.std(key):.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    if args.n_samples is not None and args.n_samples < 1:
        raise ValueError(f"--n-samples must be >= 1, got {args.n_samples}")
    result = replay(args.run_dir, config=args.config, seed=args.seed,
                    n_samples=args.n_samples)
    print(json.dumps(result, indent=1))
    return RUNTIME_ERROR if result["differ"] else 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    out = args.out or f"sweep_{cfg.name or cfg.mechanism}"
    results = run_sweep(cfg, args.grid, out, runs=args.runs, force=args.force,
                        progress=_progress_printer(args.quiet))
    for entry in results:
        l_keys = [k for k in entry if k.startswith("mean_L_")]
        shown = ", ".join(f"{k[5:]}={entry[k]:.4f}" for k in sorted(l_keys))
        print(f"points={entry['points']}: {shown}")
    return 0


def _cmd_preset(args) -> int:
    for name in preset_names():
        p = get_preset(name)
        print(f"{name}: {p['mechanism']} n={p.get('agents', 2)} "
              f"prior={p.get('prior', 'uniform')} learner={p.get('learner')}")
    return 0


def _cmd_probe_vs(args) -> int:
    cfg = _load_cfg(args)
    problem = build_problem(cfg)
    # refuse a non-empty --out before the solve, not after it
    out = prepare_out_dir(args.out, args.force) if args.out else None
    result = solve(problem, (cfg.seed, 0), progress=_progress_printer(args.quiet))
    if not result.converged:
        print(f"warning: run did not converge (max loss {result.certificate.max_loss:.2e})",
              file=sys.stderr)
    probe = collusive_profile(result.strategies, scale=args.scale)
    value = vs_probe(problem.engine(), result.strategies, probe)
    print(f"probe value: {value:.6e} "
          f"({'variational stability violated' if value > 0 else 'no violation found'})")
    if out is not None:
        (out / "probe.json").write_text(json.dumps(
            {"probe_value": value, "scale": args.scale, "config_hash": cfg.hash(),
             "version": __version__,
             "converged": result.converged, "max_loss": result.certificate.max_loss}))
    return 0


def _shading_factor(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _grid_sizes(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bnesolve",
                                description="equilibrium solver for discretized "
                                            "auction and contest games")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, batch=True):
        """The flags of ``solve`` and ``sweep``; ``probe-vs`` solves one run
        and evaluates nothing, so it takes no ``--runs`` or ``--n-samples``.
        Exactly one of ``--config`` and ``--preset`` names the game."""
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a key=value config file")
        source.add_argument("--preset", help="shipped preset id")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--force", action="store_true",
                        help="write into a non-empty output directory, first removing "
                             "what bnesolve wrote there")
        sp.add_argument("--quiet", action="store_true")
        if batch:
            sp.add_argument("--runs", type=int, default=None)
            sp.add_argument("--n-samples", type=int, default=None,
                            help="evaluation sample count")

    sp = sub.add_parser("solve", help="run one configuration (possibly many seeds)")
    common(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("evaluate", help="score and certify a stored run again and "
                                         "compare with its record")
    sp.add_argument("--run-dir", required=True)
    sp.add_argument("--config", default=None,
                    help="replay under this config file, not the batch's own; "
                         "compares nothing")
    sp.add_argument("--n-samples", type=int, default=None,
                    help="evaluation sample count (default: the run's); "
                         "compares only max_loss")
    sp.add_argument("--seed", type=int, default=None,
                    help="evaluation seed (default: the run's); compares only max_loss")
    sp.set_defaults(fn=_cmd_evaluate)

    sp = sub.add_parser("sweep", help="discretization sweep over grid sizes")
    common(sp)
    sp.add_argument("--grid", type=_grid_sizes, required=True,
                    help="comma-separated points per axis, e.g. 16,32,64,128")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("preset", help="list shipped presets")
    sp.add_argument("action", choices=["list"])
    sp.set_defaults(fn=_cmd_preset)

    sp = sub.add_parser("probe-vs", help="variational-stability probe at the "
                                         "collusive deviation")
    common(sp, batch=False)
    sp.add_argument("--scale", type=_shading_factor, default=0.5,
                    help="bid shading factor for the collusive probe (finite, >= 0)")
    sp.set_defaults(fn=_cmd_probe_vs)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): stop without a traceback,
        # and send the interpreter's own flush at exit to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return RUNTIME_ERROR
    except (FileNotFoundError, FileExistsError, NotADirectoryError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
