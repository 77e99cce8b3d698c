"""Command-line front end.

Subcommands: ``weights`` (optimal per-block weights), ``threshold``
(normalized phase-transition prediction), ``solve`` (one weighted basis
pursuit instance from text files), ``estimate`` (Monte Carlo check of the
threshold objective), ``phase`` (full experiment to CSV).

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from wbp import experiments, geometry, solver, thresholds
from wbp.model import (
    STRATEGY_KINDS,
    AppliedStrategy,
    Strategy,
    Weights,
    apply_strategy,
    make_model,
    parse_fraction,
)
from wbp.optimal import optimal_weight


def _csv_list(text, conv):
    return tuple(conv(tok) for tok in str(text).split(",") if tok.strip())


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _resolve_weighting(args, model):
    """AppliedStrategy from either --weights or --strategy/--merge/--zero-blocks."""
    if getattr(args, "weights", None):
        omega = _csv_list(args.weights, parse_fraction)
        w = Weights(omega=omega, block_sizes=model.blocks)
        if not any(x > 0.0 for x in w.omega):
            raise ValueError("at least one block weight must be positive")
        return AppliedStrategy(Strategy("unit"), model, w, w)
    merge = _csv_list(args.merge, int) if getattr(args, "merge", None) else None
    zero = _csv_list(args.zero_blocks, int) if getattr(args, "zero_blocks", None) else None
    strategy = Strategy(kind=args.strategy, merge=merge, zero_blocks=zero)
    return apply_strategy(model, strategy)


def cmd_weights(args) -> int:
    alphas = _csv_list(args.alpha, parse_fraction)
    if not alphas:
        raise ValueError("--alpha requires at least one value")
    # the roots depend only on alpha; --d/--blocks are accepted for symmetry
    # with the other commands and checked for consistency when given
    if args.blocks:
        blocks = _csv_list(args.blocks, int)
        if len(blocks) != len(alphas):
            raise ValueError("--blocks and --alpha must have the same length")
        if args.d is not None and sum(blocks) != args.d:
            raise ValueError("--blocks must sum to --d")
    raw = tuple(optimal_weight(a) for a in alphas)
    top = max(raw)
    if top == 0.0:
        raise ValueError("all blocks fully observed; weights vanish identically")
    normalized = tuple(w / top for w in raw)
    print(" ".join(_fmt(w, args.digits) for w in normalized))
    if args.raw:
        print(" ".join(_fmt(w, args.digits) for w in raw))
    return 0


def cmd_threshold(args) -> int:
    model = make_model(args.d, _csv_list(args.blocks, int), _csv_list(args.alpha, parse_fraction))
    applied = _resolve_weighting(args, model)
    result = thresholds.minimize_threshold(applied.effective_model, applied.weights)
    bounds = thresholds.statdim_bounds(applied.effective_model, result)
    digits = args.digits
    print(f"m_tilde={_fmt(result.m_tilde, digits)}")
    print(f"tau_star={_fmt(result.tau_star, digits)}")
    print(f"delta_lower_tight={_fmt(bounds.tight[0], digits)}")
    print(f"delta_lower_loose={_fmt(bounds.loose[0], digits)}")
    print(f"delta_upper={_fmt(result.delta_upper, digits)}")
    print(f"measurements={_fmt(model.d * result.m_tilde, digits)}")
    return 0


def cmd_solve(args) -> int:
    A = solver.load_matrix(args.matrix)
    b = solver.load_vector(args.rhs)
    w = solver.load_vector(args.weights)
    problem = solver.BPProblem(A=A, b=b, w=w)
    solution = solver.weighted_bp(problem, tol=args.tol)
    if solution.x_hat is None:
        print("status=infeasible", file=sys.stderr)
        return 3
    print(",".join(_fmt(v, args.digits) for v in solution.x_hat))
    print(
        f"status={solution.status} objective={_fmt(solution.objective, args.digits)} "
        f"gap={solution.gap:.2e} iterations={solution.iterations}",
        file=sys.stderr,
    )
    return 0


def cmd_estimate(args) -> int:
    model = make_model(args.d, _csv_list(args.blocks, int), _csv_list(args.alpha, parse_fraction))
    applied = _resolve_weighting(args, model)
    estimate, se = geometry.mc_expected_dist_sq(
        model, applied.original_weights, args.tau, args.samples, args.seed
    )
    print(f"estimate={_fmt(estimate, args.digits)} se={_fmt(se, args.digits)}")
    return 0


def cmd_phase(args) -> int:
    config = experiments.load_experiment_config(args.config)
    curve = experiments.run_phase_curve(config, jobs=args.jobs)
    text = curve.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if curve.solver_failures:
        print(f"solver failures: {curve.solver_failures}", file=sys.stderr)
    return 0


def _add_model_args(p, full_model: bool):
    # the weights command needs only alpha; threshold/estimate need the partition
    p.add_argument("--d", type=int, required=full_model, help="ambient dimension")
    p.add_argument("--blocks", required=full_model, help="comma-separated block sizes")
    p.add_argument(
        "--alpha",
        required=True,
        help="comma-separated support fractions (floats or fractions like 7/90)",
    )


def _add_weighting_args(p):
    p.add_argument("--strategy", default="unit", choices=list(STRATEGY_KINDS), help="weight rule")
    p.add_argument("--merge", default=None, help="blocks to pool before weighting, e.g. 0,1,2")
    p.add_argument("--zero-blocks", dest="zero_blocks", default=None, help="blocks given weight 0 (zero_one strategy)")
    p.add_argument("--weights", default=None, help="explicit per-block weights, overrides --strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wbp", description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=6, help="decimal places in numeric output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="optimal per-block weights from support fractions")
    _add_model_args(p, full_model=False)
    p.add_argument("--raw", action="store_true", help="also print the unnormalized roots")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("threshold", help="phase-transition threshold for a model and weighting")
    _add_model_args(p, full_model=True)
    _add_weighting_args(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("solve", help="solve one weighted basis pursuit instance from files")
    p.add_argument("--matrix", required=True, help="matrix file ('m,d' header + comma-separated rows)")
    p.add_argument("--rhs", required=True, help="right-hand-side vector file (one comma-separated line)")
    p.add_argument("--weights", required=True, help="per-index weight vector file")
    p.add_argument("--tol", type=float, default=1e-8, help="duality gap tolerance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of the threshold objective")
    _add_model_args(p, full_model=True)
    _add_weighting_args(p)
    p.add_argument("--tau", type=float, required=True, help="subdifferential scaling")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("phase", help="run a phase-transition experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--output", default=None, help="CSV output path (default stdout)")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default WBP_JOBS or 1)")
    p.set_defaults(func=cmd_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (solver.SolverError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
