"""Command-line interface.

Four subcommands cover the library surface: `derive` applies one
derivative operator to a named field from a CSV file, `recover` runs the
elastic recovery chain on displacement columns, `benchmark` evaluates one
refinement level of a named benchmark, and `convergence` sweeps several
levels and fits slopes.

Input checks live in the library; the CLI checks only that the named field
or displacement columns exist, and maps exceptions to exit codes: 0 on
success; 1, printing "numerical failure: ...", on OperatorBuildError; 2,
printing "error: ...", on ValueError (ParseError and DuplicateNodeError among
them), FileNotFoundError, IsADirectoryError and PermissionError.

Human-oriented diagnostics (support sizes, condition estimates, moment
residuals) and the one failure line go to stderr; results go to the
requested output files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmarks import (
    convergence_study,
    evaluate_level,
    get_problem,
    operator_diagnostics,
    operator_settings,
)
from .cloud import build_index
from .elasticity import ElasticMaterial, recover
from .io_formats import read_points_csv, write_field_csv, write_report
from .operators import (
    OperatorBuildError,
    OperatorSpec,
    build_operator,
    gradient_operator,
)

_EXIT_NUMERICAL = 1
_EXIT_USAGE = 2
_USAGE_ERRORS = (ValueError, FileNotFoundError, IsADirectoryError, PermissionError)


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid multi-index {text!r}; expected comma-separated integers"
        ) from None


def _alpha_suffix(alpha: tuple[int, ...]) -> str:
    return "".join(axis * count for axis, count in zip("xyz", alpha))


# the OperatorSpec fields the operator flags set, with their type and help
_OPERATOR_FLAGS = (
    ("r", int, "approximation order"),
    ("eps_factor", float, "kernel width multiplier"),
    ("neighbor_factor", float, "support size as a multiple of the basis size"),
)


def _operator_kwargs(args) -> dict:
    """The operator flags as the library's keyword arguments."""
    return {name: getattr(args, name) for name, _, _ in _OPERATOR_FLAGS}


def cmd_derive(args) -> int:
    cloud, fields = read_points_csv(args.input)
    if args.field not in fields:
        raise ValueError(
            f"field {args.field!r} not found in {args.input}; "
            f"available: {sorted(fields)}"
        )
    spec = OperatorSpec(alpha=_parse_alpha(args.alpha), **_operator_kwargs(args))
    op = build_operator(cloud, build_index(cloud), spec)
    diag = operator_diagnostics((op,))
    print(
        f"derive d{_alpha_suffix(spec.alpha)}: nodes={cloud.n} "
        f"support<={diag['max_support']} cond<={diag['max_condition']:.3e} "
        f"moment_residual<={diag['max_moment_residual']:.3e}",
        file=sys.stderr,
    )
    derived = op.apply(fields[args.field])
    out_name = f"{args.field}_d{_alpha_suffix(spec.alpha)}"
    out_fields = dict(fields)
    out_fields[out_name] = derived
    write_field_csv(args.output, cloud, out_fields)
    print(f"wrote {args.output} with column {out_name}")
    return 0


def cmd_recover(args) -> int:
    cloud, fields = read_points_csv(args.input)
    wanted = ["ux", "uy", "uz"][: cloud.dim]
    missing = [name for name in wanted if name not in fields]
    if missing:
        raise ValueError(f"missing displacement column(s) {missing} in {args.input}")
    material = ElasticMaterial(young=args.young, poisson=args.poisson)
    displacement = np.column_stack([fields[name] for name in wanted])
    index = build_index(cloud)
    ops = gradient_operator(cloud, index, **_operator_kwargs(args))
    result = recover(cloud, index, displacement, material, operators=ops)
    print(
        f"recover: nodes={cloud.n} dim={cloud.dim} "
        f"vm_max={float(np.max(result.von_mises)):.6e}",
        file=sys.stderr,
    )
    out_fields = {
        "u": displacement,
        "e": result.strain,
        "s": result.stress,
        "vm": result.von_mises,
    }
    for i in range(cloud.dim):
        out_fields[f"p{i + 1}"] = result.principal[:, i]
    write_field_csv(args.output, cloud, out_fields)
    print(f"wrote {args.output}")
    return 0


def _print_level_entry(name, entry):
    worst = max(entry["nrmse"].values())
    print(
        f"{name} level={entry['level']} nodes={entry['nodes']} "
        f"h={entry['spacing']:.6g} nrmse<={worst:.3e} "
        f"cond<={entry['max_condition']:.3e} "
        f"moment_residual<={entry['max_moment_residual']:.3e}",
        file=sys.stderr,
    )


def cmd_benchmark(args) -> int:
    problem = get_problem(args.problem)
    opts = _operator_kwargs(args)
    entry = evaluate_level(problem, args.level, kind=args.kind, seed=args.seed, **opts)
    _print_level_entry(problem.name, entry)
    doc = {
        "problem": problem.name,
        "kind": args.kind,
        "operator": operator_settings(**opts),
        "levels": [entry],
    }
    if args.report:
        write_report(args.report, doc)
        print(f"wrote {args.report}")
    else:
        json.dump(doc, sys.stdout, indent=2)
        print()
    return 0


def _parse_levels(text: str) -> list[int]:
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"invalid levels {text!r}; expected a count or comma-separated "
            "levels such as 1,2,3"
        ) from None
    if len(parts) == 1:
        # a single number is a sweep length starting at level 0
        return list(range(parts[0]))
    return parts


def cmd_convergence(args) -> int:
    report = convergence_study(
        args.problem,
        _parse_levels(args.levels),
        kind=args.kind,
        seed=args.seed,
        exclude_coarsest=args.exclude_coarsest,
        **_operator_kwargs(args),
    )
    for entry in report.levels:
        _print_level_entry(report.problem, entry)
    for comp, slope in report.slopes.items():
        print(f"{comp}: slope {slope:.3f}")
    if args.report:
        write_report(args.report, report)
        print(f"wrote {args.report}")
    return 0


def _add_cloud_args(parser):
    parser.add_argument("--kind", default="structured", help="structured or jittered")
    parser.add_argument("--seed", type=int, default=0, help="jitter seed")


def _add_operator_args(parser):
    for name, kind, text in _OPERATOR_FLAGS:
        flag, default = "--" + name.replace("_", "-"), getattr(OperatorSpec, name)
        parser.add_argument(flag, type=kind, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpse",
        description="Meshfree derivative operators and elastic field recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="apply a derivative operator to a CSV field")
    p.add_argument("--input", required=True, help="input CSV (coords + fields)")
    p.add_argument("--field", required=True, help="name of the field column")
    p.add_argument("--alpha", required=True, help="derivative multi-index, e.g. 1,0")
    p.add_argument("--output", required=True, help="output CSV path")
    _add_operator_args(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("recover", help="recover stress fields from displacements")
    p.add_argument("--input", required=True, help="input CSV with ux, uy[, uz]")
    p.add_argument("--young", type=float, required=True, help="Young's modulus")
    p.add_argument("--poisson", type=float, required=True, help="Poisson's ratio")
    p.add_argument("--output", required=True, help="output CSV path")
    _add_operator_args(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("benchmark", help="run one benchmark refinement level")
    p.add_argument("--problem", required=True, help="franke, plate, or cantilever")
    p.add_argument("--level", type=int, default=0, help="refinement level")
    _add_cloud_args(p)
    p.add_argument("--report", default=None, help="write JSON report here")
    _add_operator_args(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("convergence", help="sweep levels and fit slopes")
    p.add_argument("--problem", required=True, help="franke, plate, or cantilever")
    p.add_argument(
        "--levels",
        required=True,
        help="explicit levels such as 1,2,3, or a count N meaning 0..N-1",
    )
    _add_cloud_args(p)
    p.add_argument(
        "--exclude-coarsest",
        action="store_true",
        help="drop the coarsest level from the slope fit",
    )
    p.add_argument("--report", default=None, help="write JSON report here")
    _add_operator_args(p)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OperatorBuildError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
