"""Command-line interface for convergence studies and diagnostics.

Subcommands
-----------
study   Solve a manufactured case on a refinement ladder, report errors,
        fit convergence rates, and gate them against the guaranteed
        orders (exit status 1 on a miss).  Omitting --degree or --family
        runs the standard verification grid over the missing axis.
cases   List the registered manufactured solutions.
verify  Cross-check one case's data fields against finite differences.
infsup  Track the discrete inf-sup constant across refinement levels.
"""

import argparse
import dataclasses
import pathlib
import sys

from . import __version__
from .analysis import discrete_inf_sup
from .assembly import assemble
from .cases import list_cases, verify_case
from .errors import ConfigurationError, WGError
from .mesh import FAMILIES, generate_mesh, refinement_ladder
from .study import default_grid, run_study
from .weakops import ElementOps


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wgstokes",
        description="Weak Galerkin Stokes solver on polygonal meshes: "
        "convergence studies and stability diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a convergence study")
    study.add_argument("--case", default="taylor-trig", help="manufactured case name")
    study.add_argument("--family", choices=FAMILIES, help="mesh family (default: grid over two)")
    study.add_argument("--degree", type=int, help="velocity degree k (default: grid over 1 and 2)")
    study.add_argument("--n0", type=int, default=4, help="coarsest subdivision count")
    study.add_argument("--levels", type=int, default=4, help="number of refinement levels")
    study.add_argument("--seed", type=int, default=0, help="mesh perturbation seed")
    study.add_argument("--out", help="CSV output path (grid runs add -k<K>-<family>)")
    study.add_argument(
        "--condense",
        action="store_true",
        help="ignored: studies always condense (ROADMAP item 2 removes it after item 1)",
    )

    cases = sub.add_parser("cases", help="list manufactured cases")
    del cases  # no arguments

    verify = sub.add_parser("verify", help="verify a case's data fields")
    verify.add_argument("--case", required=True, help="manufactured case name")

    infsup = sub.add_parser("infsup", help="track the discrete inf-sup constant")
    infsup.add_argument("--family", default="uniform-quad", choices=FAMILIES)
    infsup.add_argument("--degree", type=int, default=1)
    infsup.add_argument("--n0", type=int, default=8)
    infsup.add_argument("--levels", type=int, default=3)
    infsup.add_argument("--seed", type=int, default=0)
    return parser


def _study_out_path(base, degree, family, single):
    if base is None:
        return None
    path = pathlib.Path(base)
    if single:
        return path
    return path.with_name(f"{path.stem}-k{degree}-{family}{path.suffix or '.csv'}")


def cmd_study(args):
    # the standard grid, with --degree and --family fixing an axis each
    configs = []
    for config in default_grid(args.case, args.n0, args.levels, args.seed):
        degree = config.degree if args.degree is None else args.degree
        family = config.family if args.family is None else args.family
        config = dataclasses.replace(config, degree=degree, family=family)
        if config not in configs:
            configs.append(config)
    outs = [_study_out_path(args.out, c.degree, c.family, len(configs) == 1) for c in configs]
    if args.out is not None and not (out_dir := pathlib.Path(args.out).parent).is_dir():
        raise ConfigurationError(f"output directory {out_dir} does not exist")
    if taken := [out for out in outs if out is not None and out.is_dir()]:
        raise ConfigurationError(f"output path {taken[0]} is a directory")

    all_passed = True
    for config, out in zip(configs, outs):
        result = run_study(config)
        print("\n".join(result.summary_lines()))
        if out is not None:
            result.record.write_csv(out)
            print(f"wrote {out}")
        print()
        all_passed = all_passed and result.passed
    return 0 if all_passed else 1


def cmd_cases(_args):
    rows = list_cases()
    width = max(len(name) for name, _, _ in rows)
    for name, description, regularity in rows:
        print(f"{name:<{width}}  {description}  [{regularity}]")
    return 0


def cmd_verify(args):
    checks = verify_case(args.case)  # ConfigurationError if any check fails
    for name, (_, value) in checks.items():
        print(f"ok   {name:<24} {value:.3e}")
    return 0


def cmd_infsup(args):
    betas = []
    for level, n in enumerate(refinement_ladder(args.n0, args.levels)):
        mesh = generate_mesh(args.family, n, seed=args.seed)
        system = assemble(ElementOps(mesh, args.degree))
        beta = discrete_inf_sup(system)
        if level == 0:  # after level 0 has checked the arguments: bad input prints nothing
            print(f"{'level':>5} {'h':>10} {'cells':>7} {'p-dofs':>7} {'beta_h':>10}")
        print(
            f"{level:>5} {mesh.mesh_size:>10.4e} {mesh.num_cells:>7} "
            f"{system.num_pressure_dofs:>7} {beta:>10.6f}"
        )
        betas.append(beta)
    lo, hi = min(betas), max(betas)
    print(f"min {lo:.6f}  max {hi:.6f}  min/max {lo / hi:.4f}")
    return 0 if lo > 0.01 and lo / hi >= 0.75 else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "study": cmd_study,
        "cases": cmd_cases,
        "verify": cmd_verify,
        "infsup": cmd_infsup,
    }[args.command]
    try:
        return handler(args)
    except WGError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
