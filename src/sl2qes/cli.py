"""Command-line interface.

Subcommands: list-families, build, verify, general.  A config file is flat
key=value text keyed by flag name; its values enter the parser as flags
ahead of the command line's, so flags win and every value is checked like
its flag, also where a flag overrides it.  Exit codes: 0 success, 1
verification failure, 2 usage or parameter error or an OSError.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog, pipeline
from .algebra import AlgebraCoefficients, b_polynomials
from .errors import Sl2QesError
from .mapping import (
    Branch,
    WaveFunction,
    _roots,
    build_gauge,
    build_mapping,
    half_line_sqrt,
    identity_shift,
    potential_from_operator,
)
from .spectral import solve_algebraic_sector

# each catalog parameter, first seen first, and whether it is whole
_PARAMS = {name: rule.whole for family in catalog._FAMILIES.values()
           for name, rule in family.params.items()}


def _read_config(path: str) -> dict:
    out = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_flags(parser: argparse.ArgumentParser, config: dict) -> list:
    """The config values that name a flag of ``parser``, as ``--flag=value``
    tokens for argparse to convert and check; a switch takes true (the bare
    flag) or false (nothing)."""
    out = []
    for action in parser._actions:
        if action.dest not in config or action.dest in ("help", "config"):
            continue
        value = config[action.dest]
        flag = action.option_strings[-1]
        if action.nargs != 0:
            out.append(f"{flag}={value}")
        elif value == "true":   # a switch: --json-samples
            out.append(flag)
        elif value != "false":
            parser.error(f"argument {flag}: expected true or false, "
                         f"got {value!r}")
    return out


def _int_at_least(low: int, high: float = math.inf, odd: bool = False):
    """argparse type: an int no smaller than ``low`` nor above ``high``,
    and odd if ``odd``."""
    def convert(text: str) -> int:
        value = int(text)
        if not low <= value <= high or (odd and value % 2 == 0):
            need = (f"at least {low}" if high == math.inf
                    else f"between {low} and {high}")
            need += " and odd" if odd else ""
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    convert.__name__ = "int"    # argparse's "invalid int value: 'abc'"
    return convert


def _finite_float(positive: bool = False):
    """argparse type: a finite float, and above 0 if ``positive``."""
    def convert(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or positive and not value > 0:
            need = "finite and positive" if positive else "finite"
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    convert.__name__ = "float"  # argparse's "invalid float value: 'abc'"
    return convert


def _bound(text: str) -> float:
    """argparse type: a branch bound, a float or +-inf but not nan."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"must not be nan, got {text}")
    return value


_bound.__name__ = "float"


def _entry(args) -> catalog.CatalogEntry:
    """The catalog entry the flags name."""
    if not args.family:
        raise Sl2QesError("--family is required")
    params = {name: getattr(args, name) for name in _PARAMS
              if getattr(args, name) is not None}
    return catalog.make_entry(args.family, params, sign=args.sign, n=args.n)


def _build(args, entry: catalog.CatalogEntry):
    """Write the entry's potential, spectrum and wavefunction artifacts;
    an entry with no bound state up to --j-max writes nothing."""
    j_vals = [j for j, _ in entry.verification_levels(args.j_max)]
    x, v = pipeline.sample_potential(entry, args.samples)
    pipeline.write_artifacts(args.out_dir, x, v,
                             pipeline.spectrum_document(entry, j_vals),
                             pipeline.wavefunction_rows(entry, x, j_vals),
                             args.json_samples)


def _cmd_list_families(args) -> int:
    doc = catalog.list_families()
    if args.json_out:
        pipeline.write_json_atomic(args.json_out, pipeline.json_pieces(doc))
    else:
        print(*pipeline.json_pieces(doc), sep="")
    return 0


def _cmd_build(args) -> int:
    _build(args, _entry(args))
    print("wrote potential.csv, spectrum.json, wavefunctions.csv to "
          f"{args.out_dir}")
    return 0


def _cmd_verify(args) -> int:
    entry = _entry(args)
    # the report comes first: a run with no level to check writes nothing
    report = pipeline.verification_report(
        entry, j_max=args.j_max, points=args.points, tolerance=args.tolerance)
    _build(args, entry)
    pipeline.write_json_atomic(
        os.path.join(args.out_dir, "verification.json"),
        pipeline.json_pieces(report))
    for row in report["levels"]:
        status = "ok" if row["pass"] else f"FAIL: {row['cause']}"
        # a level decided before any solve has no numeric value
        numeric = ("numeric - diff -" if row["numeric_E"] is None else
                   f"numeric {row['numeric_E']:.9g} diff "
                   f"{row['abs_diff']:.3g}")
        print(f"level {row['level']}: algebraic {row['algebraic_E']:.9g} "
              f"{numeric} tol {row['tolerance']:.3g} [{status}]")
    if not report["all_pass"]:
        print("verification FAILED", file=sys.stderr)
        return 1
    print("verification passed")
    return 0


def _inside(lo: float, hi: float) -> float:
    """A point of (lo, hi): the midpoint if bounded, else one unit in from
    the finite end, else 0."""
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(hi):
        return hi - 1.0
    return lo + 1.0 if np.isfinite(lo) else 0.0


def _general_branch(bp, args):
    b4 = bp.b4
    if (args.xi_min is None) != (args.xi_max is None):
        raise Sl2QesError("--xi-min and --xi-max must be given together")
    if args.xi_min is not None:
        lo, hi = args.xi_min, args.xi_max
    else:
        bounds = [-np.inf] + sorted(set(_roots(b4)[0])) + [np.inf]
        candidates = [(left, right) for left, right in zip(bounds, bounds[1:])
                      if b4(_inside(left, right)) > 0]
        if not candidates:
            raise Sl2QesError("B4 is not positive anywhere: no usable branch")
        # prefer a bounded positive interval, else the right-most one
        bounded = [c for c in candidates
                   if np.isfinite(c[0]) and np.isfinite(c[1])]
        lo, hi = bounded[0] if bounded else candidates[-1]
    xi0 = _inside(lo, hi) if args.xi0 is None else args.xi0
    return Branch(lo, hi, sign=1, xi0=float(xi0))


def _cmd_general(args) -> int:
    if not args.algebra:
        raise Sl2QesError("--algebra JSON path is required")
    with open(args.algebra) as handle:
        coeffs = AlgebraCoefficients.from_json_dict(json.load(handle))
    bp = b_polynomials(coeffs)
    two_sqrt = args.u_transform == "two-sqrt"
    transform = half_line_sqrt() if two_sqrt else identity_shift(args.u_a)
    branch = _general_branch(bp, args)
    mapping = build_mapping(bp, branch, transform)

    # the default x range follows the transform, the half line for
    # two-sqrt; an end at or beyond the map's u reach moves in to 99% of it
    x_lo, x_hi = (0.05, 10.0) if two_sqrt else (-3.0, 3.0)
    u_lo, u_hi = mapping.u_reach
    if transform.u(x_lo) <= u_lo:
        x_lo = transform.x_of_u(0.99 * u_lo)
    if transform.u(x_hi) >= u_hi:
        x_hi = transform.x_of_u(0.99 * u_hi)
    x_lo = x_lo if args.x_min is None else args.x_min
    x_hi = x_hi if args.x_max is None else args.x_max
    if not x_lo < x_hi:
        raise Sl2QesError(f"--x-min must be below --x-max, got {x_lo!r} and "
                          f"{x_hi!r}")
    if two_sqrt and x_lo <= 0:
        raise Sl2QesError("two-sqrt transform needs x > 0")

    x = np.linspace(x_lo, x_hi, args.samples)

    solved = solve_algebraic_sector(coeffs.with_free_d())
    d_value = float(coeffs.d) if coeffs.d is not None else solved.levels[0].d
    pot = potential_from_operator(bp, d_value, mapping, args.e_convention,
                                  domain=(x_lo, x_hi))
    v = pipeline.finite_potential(pot, x)

    banner = ("general mode: normalizability of the reported levels is "
              "not validated")
    print(banner, file=sys.stderr)

    doc = {
        "mode": "general",
        "algebra": coeffs.to_json_dict(),
        "branch": {"xi_min": branch.lo, "xi_max": branch.hi,
                   "sign": branch.sign, "xi0": branch.xi0},
        "d_used": d_value,
        "e_convention": args.e_convention,
        "levels": [lv.to_json_dict() for lv in solved.levels],
        "warnings": [banner],
    }
    gauge = build_gauge(bp, mapping, float(x[len(x) // 2]))
    # every level shares the gauge and the map: one block, one gauge pass
    block = WaveFunction(gauge, [lv.b for lv in solved.levels], mapping)
    psi = pipeline.RowSampler(x, [block.on(x)])
    pipeline.write_artifacts(args.out_dir, x, v, doc, psi)
    print(f"wrote general-mode artifacts to {args.out_dir}")
    return 0


def _run_parser(sub, name: str, help_text: str, handler):
    """A subcommand that reads --config and writes to --out-dir."""
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(handler=handler, subparser=parser)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--samples", type=_int_at_least(1, 1_000_000),
                        default=401)
    parser.add_argument("--out-dir", default="out")
    return parser


def _add_catalog_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--family", help="catalog family name")
    for name, whole in _PARAMS.items():
        # whole parameters and n stay strings: the catalog checks they are
        # non-negative integers, so "2.0" is accepted and "1.5" named
        parser.add_argument(f"--{name}", type=None if whole else float)
    parser.add_argument("--n", default=0)
    parser.add_argument("--sign", choices=["+", "-"])
    parser.add_argument("--j-max", type=_int_at_least(0), default=3,
                        help="highest level of an exactly solvable family "
                        "(default 3); a quasi-solvable entry always takes "
                        "all n + 1 levels of its sector")
    parser.add_argument("--json-samples", action="store_true",
                        help="also write the samples as JSON arrays")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2qes",
        description="Construct solvable and quasi-solvable 1D potentials "
                    "from sl(2) operator data and verify them numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-families", help="describe the catalog")
    p_list.set_defaults(handler=_cmd_list_families)
    p_list.add_argument("--json-out")

    _add_catalog_flags(_run_parser(sub, "build", "emit potential, spectrum, "
                                   "wavefunction artifacts", _cmd_build))

    p_verify = _run_parser(sub, "verify", "build and check against the "
                           "finite-difference oracle", _cmd_verify)
    _add_catalog_flags(p_verify)
    p_verify.add_argument("--points",
                          type=_int_at_least(31, pipeline.MAX_POINTS,
                                             odd=True),
                          help="fix the h grid's points (odd, so the 2h grid "
                          "takes every other node); on a half line the grid "
                          "is stretched (u = 2 sqrt(x)) and they are u nodes")
    p_verify.add_argument("--tolerance", type=_finite_float(positive=True))

    p_general = _run_parser(sub, "general", "run raw coefficient data "
                            "through the full pipeline", _cmd_general)
    p_general.add_argument("--algebra", help="coefficient JSON path")
    p_general.add_argument("--u-transform", choices=["identity", "two-sqrt"],
                           default="identity")
    p_general.add_argument("--u-a", type=_finite_float(), default=0.0)
    for name in ("--xi-min", "--xi-max"):
        p_general.add_argument(name, type=_bound)
    p_general.add_argument("--xi0", type=_finite_float())
    p_general.add_argument("--e-convention", type=_finite_float(),
                           default=0.0)
    p_general.add_argument("--x-min", type=_finite_float())
    p_general.add_argument("--x-max", type=_finite_float())
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every request in this process, built on first use;
    it is never changed, so one request cannot leak into the next."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's values go in as flags right after the subcommand
            # name: argparse converts and checks them like flags, and the
            # command line's own flags come later, so they win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.subparser,
                                        _read_config(args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:   # a usage error, already printed by argparse
        return exc.code
    except (Sl2QesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value exceeds the float range ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
