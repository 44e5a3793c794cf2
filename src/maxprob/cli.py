"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (a machine-readable JSON
object {"error": <code>, "detail": <text>} goes to stderr), 2 on usage
errors.  Scalar reports are printed as single-line JSON; grids and traces
are printed as CSV with a header row and "\n" line endings.  Floats are
serialized with repr, so outputs round-trip exactly and fixed-seed runs
are byte-identical.  Every subcommand accepts --out to write the primary
output to a file instead of stdout (the path "-" also means stdout).

An infinite float, such as the log value of a model event ruled out by the
prior, is the CSV cell inf or -inf and the JSON string "-inf" or "inf" (not
an illegal JSON token); a NaN is a NonFiniteEncountered domain error in both.

`optimize --out FILE` writes the trace CSV to FILE and a one-line JSON summary
to stdout, whose final_theta is the text of the CSV's last row, each float
formatted once for both.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import re
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .acceptance import run_all, run_criterion
from .bernoulli import SweepSpec, run_sweep, theta_grid
from .bernoulli import report_to_jsonable as sweep_report_to_jsonable
from .bounds import BoundResult, alpha_skeleton, max_probability, softmax_probability
from .distributions import (
    FiniteDistribution,
    OutcomeRange,
    Parameterization,
    distribution_from_jsonable,
    distribution_to_jsonable,
    uniform_distribution,
)
from .errors import DimensionMismatch, DomainError, NonFiniteEncountered
from .nn import LOSS_MODES, ToyNet, make_toy_dataset, train
from .nn import report_to_jsonable as train_report_to_jsonable
from .objectives import ASSUMPTIONS, KINDS, ObjectiveConfig, evaluate, gradient_logp
from .optimize import AscentConfig, ascend

__all__ = ["build_parser", "dispatch", "main"]

log = logging.getLogger("maxprob")


# ---------------------------------------------------------------------------
# input/output plumbing


def _load_distribution(path: str) -> FiniteDistribution:
    """Read a {"range": [...], "probs": [...]} JSON file; "-" reads stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r") as fh:
            text = fh.read()
    return distribution_from_jsonable(json.loads(text))


def _load_prior(path: Optional[str], rng: OutcomeRange) -> FiniteDistribution:
    """The --prior distribution, or the uniform one over rng when none is given."""
    return _load_distribution(path) if path is not None else uniform_distribution(rng)


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", out)


def _json_safe(obj):
    """obj with every infinite float replaced by the string "inf" or "-inf"."""
    if isinstance(obj, float):
        if math.isnan(obj):
            raise NonFiniteEncountered("a NaN reached the JSON output")
        return repr(float(obj)) if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _emit_json(obj, out: Optional[str]) -> None:
    _write_text(json.dumps(_json_safe(obj), allow_nan=False) + "\n", out)


def _csv_cells(table: np.ndarray) -> list[str]:
    """Each row of a float array (1-D: one column) as CSV text of repr floats, as
    csv.writer writes them; a NaN raises NonFiniteEncountered."""
    if np.isnan(table).any():
        raise NonFiniteEncountered("a NaN reached the CSV output")
    if table.ndim == 1:
        return list(map(repr, table.tolist()))
    return [",".join(map(repr, row)) for row in table.tolist()]


def _emit_csv(header: Sequence[str], blocks: Iterable, out: Optional[str]) -> list[str]:
    """Write the header, then per (prefix, keys, table) block a line prefix + key + row
    per row of the float array table; prefix and keys are CSV text, each key ending in ",",
    and keys holds one key per row.  Returns the last block's rows as _csv_cells formatted
    them.

    Each block is one join over a list of slots ("\\n" + prefix, key, row per row), and
    the whole text is written once, after every block is formatted, so a NaN anywhere
    writes nothing.  A block whose table is the same object as the previous block's
    reuses its row text, so the table may not change in between: a sweep's alpha-free
    curve is formatted once for all its alphas."""
    texts, cells, last = [",".join(header)], [], None
    for prefix, keys, table in blocks:
        if table is not last:
            last, cells = table, _csv_cells(table)
        slots = ["\n" + prefix] * (3 * len(cells))
        slots[1::3], slots[2::3] = keys, cells
        texts.append("".join(slots))
    _write_text("".join(texts) + "\n", out)
    return cells


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _names_csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_bound(args: argparse.Namespace) -> int:
    prior = _load_distribution(args.prior)
    conditional = _load_distribution(args.conditional)
    result: BoundResult = max_probability(prior, conditional)
    _emit_json({
        "log_value": result.log_max_probability,
        "value": result.value,
        "argmin_outcome": result.argmin_outcome,
    }, args.out)
    return 0


def _cmd_soft_bound(args: argparse.Namespace) -> int:
    prior = _load_distribution(args.prior)
    conditional = _load_distribution(args.conditional)
    log_value = softmax_probability(prior, conditional, args.alpha)
    _emit_json({
        "alpha": args.alpha,
        "log_value": log_value,
        "value": float(np.exp(log_value)),
    }, args.out)
    return 0


def _cmd_skeleton(args: argparse.Namespace) -> int:
    dist = _load_distribution(args.dist)
    _emit_json(distribution_to_jsonable(alpha_skeleton(dist, args.alpha)), args.out)
    return 0


def _cmd_objective(args: argparse.Namespace) -> int:
    model = _load_distribution(args.model)
    oracle = _load_distribution(args.oracle)
    prior = _load_prior(args.prior, model.range)
    config = ObjectiveConfig(args.kind, args.assumption, args.alpha, prior)
    value = evaluate(config, model, oracle)
    grad = gradient_logp(config, model, oracle)
    _emit_json({
        "kind": args.kind,
        "assumption": args.assumption,
        "alpha": args.alpha,
        "value": value,
        "dropped_constant_terms": list(config.dropped_constant_terms),
        "gradient_logp": [float(g) for g in grad.d_logp],
    }, args.out)
    return 0


def _make_parameterization(args: argparse.Namespace, rng: OutcomeRange) -> Parameterization:
    """The --param family over the oracle's range; --dim, if given, must be its size."""
    if args.dim is not None and args.dim != len(rng):
        raise DimensionMismatch(f"--dim {args.dim} does not match the oracle's "
                                f"{len(rng)} outcomes")
    if args.param == "sigmoid":
        return Parameterization.sigmoid_bernoulli(rng)
    return Parameterization.softmax_logits(rng)


def _cmd_optimize(args: argparse.Namespace) -> int:
    oracle = _load_distribution(args.oracle)
    p = _make_parameterization(args, oracle.range)
    prior = _load_prior(args.prior, p.range)
    theta0 = np.zeros(p.dim) if args.theta0 is None else args.theta0
    config = ObjectiveConfig(args.kind, args.assumption, args.alpha, prior)
    ascent = AscentConfig(step_size=args.step, max_iters=args.max_iters,
                          grad_tol=args.grad_tol)
    trace = ascend(config, oracle, p, theta0, ascent)
    header = ["iter"] + [f"theta_{i}" for i in range(p.dim)] + ["value", "grad_norm"]
    table = np.column_stack((trace.thetas, trace.values, trace.grad_norms))
    cells = _emit_csv(header, [("", [f"{i}," for i in range(len(table))], table)], args.out)
    if args.out not in (None, "-"):
        # final_theta is the last row's theta cells, as json would format those floats
        theta = "[" + ", ".join(cells[-1].split(",", p.dim)[:p.dim]) + "]"
        if np.isinf(trace.final_theta).any():
            theta = re.sub(r"-?inf", r'"\g<0>"', theta)
        _write_text(f'{{"status": {json.dumps(trace.status)}, '
                    f'"iterations": {json.dumps(trace.iterations)}, "final_theta": {theta}, '
                    f'"final_value": {json.dumps(_json_safe(trace.final_value))}}}\n', None)
    return 0


def _cmd_sweep_bernoulli(args: argparse.Namespace) -> int:
    prior = _load_prior(args.prior, Parameterization.sigmoid_bernoulli().range)
    spec = SweepSpec(
        theta_star=args.theta_star,
        grid_min=args.grid_min,
        grid_max=args.grid_max,
        grid_step=args.grid_step,
        alphas=args.alphas,
        assumption=args.assumption,
        objectives=args.objectives,
        prior=prior,
    )
    report = run_sweep(spec)
    thetas = [cell + "," for cell in _csv_cells(theta_grid(spec))]  # shared by every curve
    _emit_csv(["objective", "assumption", "alpha", "theta", "value"],
              ((f"{c.objective},{spec.assumption},{c.alpha!r},", thetas, c.values)
               for c in report.curves), args.out)
    if args.summary_out is not None:
        _emit_json(sweep_report_to_jsonable(report), args.summary_out)
    return 0


def _cmd_train_toy(args: argparse.Namespace) -> int:
    data = make_toy_dataset(k=args.classes, seed=args.data_seed)
    net = ToyNet(k=args.classes, hidden=args.hidden, seed=args.net_seed)
    report = train(net, data, mode=args.loss, alpha=args.alpha, lam=args.lam,
                   epochs=args.epochs, step=args.step, seed=args.seed,
                   batch_size=args.batch_size)
    _emit_json(train_report_to_jsonable(report), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.only is not None:
        results = [run_criterion(args.only, args.artifacts)]
    else:
        results = run_all(args.artifacts)
    for result in results:
        print(result.line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out is not None:
        _emit_json([
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": r.seconds,
            }
            for r in results
        ], args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads an argument starting -<digit>, -.<digit>, -inf or -nan
    as a value, so an option takes a negative float in any form repr prints (-2e-05,
    -1e+300, -inf) and a comma list that starts with one (-1e-05,0).  argparse's own
    pattern takes only -<digits> and -<digits>.<digits>: "-2e-05" is an unknown option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # subparsers take this class too
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None,
                     help="write the primary output to this file instead of stdout")
    sub.add_argument("--log-level", default="warning",
                     choices=("debug", "info", "warning", "error"))


def _add_objective_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", required=True, choices=KINDS)
    sub.add_argument("--assumption", default="cond-independent", choices=ASSUMPTIONS)
    sub.add_argument("--alpha", type=float, default=1.0,
                     help="sharpness of the soft minimum; must be positive")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxprob",
        description="Probability bounds and model-fitting objectives over finite ranges.",
    )
    parser.add_argument("--version", action="version", version=f"maxprob {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    bound = subs.add_parser("bound", help="hard upper bound on the model event probability")
    bound.add_argument("--prior", required=True, help="prior distribution JSON ('-' = stdin)")
    bound.add_argument("--conditional", required=True, help="conditional distribution JSON")
    bound.set_defaults(func=_cmd_bound)

    soft = subs.add_parser("soft-bound", help="differentiable lower envelope of the bound")
    soft.add_argument("--alpha", type=float, required=True)
    soft.add_argument("--prior", required=True)
    soft.add_argument("--conditional", required=True)
    soft.set_defaults(func=_cmd_soft_bound)

    skel = subs.add_parser("skeleton", help="renormalized alpha-power transform of a distribution")
    skel.add_argument("--alpha", type=float, required=True)
    skel.add_argument("--dist", required=True)
    skel.set_defaults(func=_cmd_skeleton)

    obj = subs.add_parser("objective", help="objective value and log-space gradient")
    _add_objective_args(obj)
    obj.add_argument("--model", required=True)
    obj.add_argument("--oracle", required=True)
    obj.add_argument("--prior", default=None,
                     help="prior distribution JSON (default: uniform over the model range)")
    obj.set_defaults(func=_cmd_objective)

    opt = subs.add_parser("optimize", help="gradient ascent on an objective; emits the trace as CSV")
    _add_objective_args(opt)
    opt.add_argument("--oracle", required=True)
    opt.add_argument("--prior", default=None)
    opt.add_argument("--param", required=True, choices=("sigmoid", "softmax"))
    opt.add_argument("--dim", type=int, default=None,
                     help="number of outcomes; the parameterization takes the oracle's "
                          "range, so this must match it (default: the oracle's size)")
    opt.add_argument("--theta0", type=_floats_csv, default=None,
                     help="comma-separated start point (default: zeros)")
    opt.add_argument("--step", type=float, default=0.1)
    opt.add_argument("--max-iters", type=int, default=10000)
    opt.add_argument("--grad-tol", type=float, default=1e-8)
    opt.set_defaults(func=_cmd_optimize)

    sweep = subs.add_parser("sweep-bernoulli",
                            help="tabulate objective curves over a log-odds grid")
    sweep.add_argument("--theta-star", type=float, required=True,
                       help="oracle log-odds parameter")
    sweep.add_argument("--grid-min", type=float, default=-8.0)
    sweep.add_argument("--grid-max", type=float, default=8.0)
    sweep.add_argument("--grid-step", type=float, default=0.01)
    sweep.add_argument("--alphas", type=_floats_csv, default=(1.0, 2.0, 4.0, 16.0, 256.0))
    sweep.add_argument("--objectives", type=_names_csv, default=KINDS)
    sweep.add_argument("--assumption", default="cond-independent", choices=ASSUMPTIONS)
    sweep.add_argument("--prior", default=None, help="prior JSON (default: uniform)")
    sweep.add_argument("--summary-out", default=None,
                       help="also write per-curve argmax/shape summary JSON here")
    sweep.set_defaults(func=_cmd_sweep_bernoulli)

    toy = subs.add_parser("train-toy", help="train the toy classifier and emit a JSON report")
    toy.add_argument("--loss", required=True, choices=LOSS_MODES)
    toy.add_argument("--alpha", type=float, default=1.0)
    toy.add_argument("--lam", type=float, default=0.0, help="weight penalty for ce-l2")
    toy.add_argument("--epochs", type=int, default=200)
    toy.add_argument("--step", type=float, default=0.05)
    toy.add_argument("--batch-size", type=int, default=None,
                     help="minibatch size (default: full batch)")
    toy.add_argument("--classes", type=int, default=3)
    toy.add_argument("--hidden", type=int, default=16)
    toy.add_argument("--seed", type=int, default=0, help="shuffle seed for minibatches")
    toy.add_argument("--net-seed", type=int, default=0)
    toy.add_argument("--data-seed", type=int, default=0)
    toy.set_defaults(func=_cmd_train_toy)

    check = subs.add_parser("check", help="run the acceptance criteria and print a table")
    check.add_argument("--only", type=int, default=None, metavar="N",
                       help="run a single criterion by number")
    check.add_argument("--artifacts", default=None,
                       help="directory for training-curve artifacts")
    check.set_defaults(func=_cmd_check)

    for sub in subs.choices.values():  # after each subcommand's own arguments
        _add_common(sub)

    return parser


_parser = functools.cache(build_parser)  # parse_args leaves it as it was: one per process


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and run; returns the exit code instead of exiting.

    Keeping this separate from main() lets tests and the reproducibility
    criterion drive the CLI in-process and still see real exit codes.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    logging.basicConfig()  # installs a handler once; the level is set per call
    log.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except DomainError as exc:
        _fail(exc.code, str(exc))
        return 1
    except FileNotFoundError as exc:
        _fail("FileNotFound", str(exc))
        return 1
    except OSError as exc:  # a directory, a permission, a device: any other file failure
        _fail("IOError", str(exc))
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _fail("InvalidJson", str(exc))
        return 1


def _fail(code: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
