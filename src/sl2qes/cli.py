"""Command-line interface.

Subcommands: list-families, build, verify, general.  Flags override config
file entries, which override defaults; the config file is flat key=value
text whose keys are flag names, and its values are converted and checked
like the flags they name.  Exit codes: 0 success, 1 verification failure,
2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog, pipeline
from .algebra import AlgebraCoefficients, b_polynomials
from .errors import Sl2QesError
from .mapping import (
    Branch,
    _roots,
    assemble_wavefunction,
    build_gauge,
    build_mapping,
    half_line_sqrt,
    identity_shift,
    potential_from_operator,
)
from .spectral import solve_algebraic_sector

_PARAM_FLAGS = ("omega", "alpha", "beta", "a", "gamma", "eta", "A", "B",
                "e2", "l")


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


def _config_defaults(parser: argparse.ArgumentParser, config: dict) -> dict:
    """The config values that name a flag of ``parser``, as its defaults.
    argparse runs the flag's ``type`` on them; switches and choices, which
    argparse does not check on defaults, are checked here."""
    out = {}
    for action in parser._actions:
        if action.dest not in config:
            continue
        value = config[action.dest]
        flag = "/".join(action.option_strings)
        if action.nargs == 0:   # a switch: --json-samples
            if value not in ("true", "false"):
                parser.error(f"argument {flag}: expected true or false, "
                             f"got {value!r}")
            value = value == "true"
        elif action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            parser.error(f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {choices})")
        out[action.dest] = value
    return out


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def convert(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {text}")
        return int(text)

    convert.__name__ = "int"    # argparse's "invalid int value: 'abc'"
    return convert


def _write_artifacts(out_dir: str, x, v, doc: dict, psi_cols: list,
                     json_samples: bool = False):
    """potential.csv, spectrum.json and wavefunctions.csv (psi_j in column
    j), and with ``json_samples`` the samples as JSON arrays too."""
    labels = [f"psi_{j}" for j in range(len(psi_cols))]
    pipeline.write_csv_atomic(os.path.join(out_dir, "potential.csv"),
                              ["x", "V"], [x, v])
    pipeline.write_json_atomic(os.path.join(out_dir, "spectrum.json"), doc)
    pipeline.write_csv_atomic(os.path.join(out_dir, "wavefunctions.csv"),
                              ["x"] + labels, [x] + psi_cols)
    if json_samples:
        pipeline.write_json_atomic(os.path.join(out_dir, "potential.json"),
                                   {"x": x.tolist(), "V": v.tolist()})
        pipeline.write_json_atomic(
            os.path.join(out_dir, "wavefunctions.json"),
            {"x": x.tolist(),
             "psi": {str(j): col.tolist() for j, col in enumerate(psi_cols)}})


def _entry(args) -> catalog.CatalogEntry:
    """The catalog entry the flags name."""
    if not args.family:
        raise Sl2QesError("--family is required")
    params = {name: getattr(args, name) for name in _PARAM_FLAGS
              if getattr(args, name) is not None}
    return catalog.make_entry(args.family, params, sign=args.sign, n=args.n)


def _build(args, entry: catalog.CatalogEntry):
    """Write the entry's potential, spectrum and wavefunction artifacts;
    an entry with no bound state up to --j-max writes nothing."""
    j_vals = [j for j, _ in entry.verification_levels(args.j_max)]
    x, v = pipeline.sample_potential(entry, args.samples)
    _write_artifacts(args.out_dir, x, v,
                     pipeline.spectrum_document(entry, j_vals),
                     pipeline.sample_wavefunctions(entry, x, j_vals),
                     args.json_samples)


def _cmd_list_families(args) -> int:
    doc = catalog.list_families()
    if args.json_out:
        pipeline.write_json_atomic(args.json_out, doc)
    else:
        print(json.dumps(doc, indent=2))
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
        os.path.join(args.out_dir, "verification.json"), report)
    for row in report["levels"]:
        status = "ok" if row["pass"] else "FAIL"
        print(f"level {row['level']}: algebraic {row['algebraic_E']:.9g} "
              f"numeric {row['numeric_E']:.9g} diff {row['abs_diff']:.3g} "
              f"tol {row['tolerance']:.3g} [{status}]")
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

    # the default x range follows the transform: the half line for two-sqrt
    two_sqrt = args.u_transform == "two-sqrt"
    transform = half_line_sqrt() if two_sqrt else identity_shift(args.u_a)
    x_lo = (0.05 if two_sqrt else -3.0) if args.x_min is None else args.x_min
    x_hi = (10.0 if two_sqrt else 3.0) if args.x_max is None else args.x_max
    if not x_lo < x_hi:
        raise Sl2QesError(f"--x-min must be below --x-max, got {x_lo!r} and "
                          f"{x_hi!r}")
    if two_sqrt and x_lo <= 0:
        raise Sl2QesError("two-sqrt transform needs x > 0")

    branch = _general_branch(bp, args)
    x = np.linspace(x_lo, x_hi, args.samples)
    mapping = build_mapping(bp, branch, transform)

    solved = solve_algebraic_sector(coeffs.with_free_d())
    d_value = float(coeffs.d) if coeffs.d is not None else solved.levels[0].d
    pot = potential_from_operator(bp, d_value, mapping, args.e_convention,
                                  domain=(x_lo, x_hi))

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
    g = gauge(x)   # one gauge pass over x for all levels
    cols = [assemble_wavefunction(gauge, lv.b, mapping)(x, g)
            for lv in solved.levels]
    _write_artifacts(args.out_dir, x, np.asarray(pot(x), float), doc, cols)
    print(f"wrote general-mode artifacts to {args.out_dir}")
    return 0


def _run_parser(sub, name: str, help_text: str, handler):
    """A subcommand that reads --config and writes to --out-dir."""
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(handler=handler, subparser=parser)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--samples", type=_int_at_least(1), default=401)
    parser.add_argument("--out-dir", default="out")
    return parser


def _add_catalog_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--family", help="catalog family name")
    for name in _PARAM_FLAGS:
        # l and n stay strings: the catalog checks they are non-negative
        # integers, so "2.0" is accepted and "1.5" named
        parser.add_argument(f"--{name}", type=None if name == "l" else float)
    parser.add_argument("--n", default=0)
    parser.add_argument("--sign", choices=["+", "-"])
    parser.add_argument("--j-max", type=_int_at_least(0), default=3)
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
    p_verify.add_argument("--points", type=int, help="override grid points")
    p_verify.add_argument("--tolerance", type=float)

    p_general = _run_parser(sub, "general", "run raw coefficient data "
                            "through the full pipeline", _cmd_general)
    p_general.add_argument("--algebra", help="coefficient JSON path")
    p_general.add_argument("--u-transform", choices=["identity", "two-sqrt"],
                           default="identity")
    p_general.add_argument("--u-a", type=float, default=0.0)
    for name in ("--xi-min", "--xi-max", "--xi0"):
        p_general.add_argument(name, type=float)
    p_general.add_argument("--e-convention", type=float, default=0.0)
    p_general.add_argument("--x-min", type=float)
    p_general.add_argument("--x-max", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's values become the subcommand's defaults: argparse
            # converts and checks them like flags, and flags still win
            sub = args.subparser
            sub.set_defaults(**_config_defaults(sub, _read_config(args.config)))
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:   # a usage error, already printed by argparse
        return exc.code
    except (Sl2QesError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
