"""Command-line interface.

Subcommands: list-families, build, verify, general.  Flags override config
file entries, which override defaults; the config file is flat key=value
text.  Exit codes: 0 success, 1 verification failure, 2 usage or parameter
error.
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
    _real_roots,
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

_DEFAULTS = {
    "build": {"n": 0, "sign": None, "j_max": 3, "samples": 401,
              "out_dir": "out"},
    "verify": {"n": 0, "sign": None, "j_max": 3, "samples": 401,
               "out_dir": "out", "points": None, "tolerance": None},
    "general": {"e_convention": 0.0, "samples": 401, "out_dir": "out",
                "u_transform": "identity", "u_a": 0.0,
                "x_min": None, "x_max": None,
                "xi_min": None, "xi_max": None, "xi0": None},
}


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


def _merged_options(args: argparse.Namespace, command: str) -> dict:
    opts = dict(_DEFAULTS.get(command, {}))
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        opts.update(_read_config(cfg_path))
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            opts[key] = value
    return opts


def _coerce(opts: dict, key: str, cast, default=None):
    value = opts.get(key, default)
    if value is None:
        return default
    if isinstance(value, str) and cast is not str:
        return cast(value)
    return cast(value) if cast is not None else value


def _entry_from_options(opts: dict) -> catalog.CatalogEntry:
    family = opts.get("family")
    if not family:
        raise Sl2QesError("--family is required")
    params = {}
    for name in _PARAM_FLAGS:
        if opts.get(name) is not None:
            value = opts[name]
            # the catalog checks l is a non-negative integer
            params[name] = value if name == "l" else float(value)
    sign = opts.get("sign")
    n = _coerce(opts, "n", int, 0)
    return catalog.make_entry(family, params, sign=sign, n=n)


def _write_build_artifacts(entry, opts, extra_warnings=None):
    out_dir = str(opts.get("out_dir", "out"))
    samples = _coerce(opts, "samples", int, 401)
    x, v = pipeline.sample_potential(entry, samples)
    pipeline.write_csv_atomic(os.path.join(out_dir, "potential.csv"),
                              ["x", "V"], [x, v])
    j_vals = [j for j, _ in entry.verification_levels(
        _coerce(opts, "j_max", int, 3))]
    doc = pipeline.spectrum_document(entry, j_vals, extra_warnings)
    pipeline.write_json_atomic(os.path.join(out_dir, "spectrum.json"), doc)
    psi_cols = pipeline.sample_wavefunctions(entry, x, j_vals)
    pipeline.write_csv_atomic(
        os.path.join(out_dir, "wavefunctions.csv"),
        ["x"] + [f"psi_{j}" for j in j_vals],
        [x] + psi_cols,
    )
    if opts.get("json_samples"):
        pipeline.write_json_atomic(
            os.path.join(out_dir, "potential.json"),
            {"x": [float(t) for t in x], "V": [float(t) for t in v]},
        )
        pipeline.write_json_atomic(
            os.path.join(out_dir, "wavefunctions.json"),
            {"x": [float(t) for t in x],
             "psi": {str(j): [float(t) for t in col]
                     for j, col in zip(j_vals, psi_cols)}},
        )
    return out_dir


def _cmd_list_families(args) -> int:
    doc = catalog.list_families()
    text = json.dumps(doc, indent=2)
    if getattr(args, "json_out", None):
        pipeline.write_json_atomic(args.json_out, doc)
    else:
        print(text)
    return 0


def _cmd_build(args) -> int:
    opts = _merged_options(args, "build")
    entry = _entry_from_options(opts)
    out_dir = _write_build_artifacts(entry, opts)
    print(f"wrote potential.csv, spectrum.json, wavefunctions.csv to {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    opts = _merged_options(args, "verify")
    entry = _entry_from_options(opts)
    out_dir = _write_build_artifacts(entry, opts)
    report = pipeline.verification_report(
        entry,
        j_max=_coerce(opts, "j_max", int, 3),
        points=_coerce(opts, "points", int, None),
        tolerance=_coerce(opts, "tolerance", float, None),
    )
    pipeline.write_json_atomic(os.path.join(out_dir, "verification.json"),
                               report)
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


def _general_branch(bp, opts):
    b4 = bp.b4
    xi_min = _coerce(opts, "xi_min", float, None)
    xi_max = _coerce(opts, "xi_max", float, None)
    if xi_min is not None and xi_max is not None:
        lo, hi = xi_min, xi_max
    else:
        desc = b4.float_coeffs()[::-1]
        bounds = [-np.inf] + sorted(set(_real_roots(b4))) + [np.inf]
        candidates = [(left, right) for left, right in zip(bounds, bounds[1:])
                      if np.polyval(desc, _inside(left, right)) > 0]
        if not candidates:
            raise Sl2QesError("B4 is not positive anywhere: no usable branch")
        # prefer a bounded positive interval, else the right-most one
        bounded = [c for c in candidates
                   if np.isfinite(c[0]) and np.isfinite(c[1])]
        lo, hi = bounded[0] if bounded else candidates[-1]
    xi0 = _coerce(opts, "xi0", float, None)
    if xi0 is None:
        xi0 = _inside(lo, hi)
    return Branch(lo, hi, sign=1, xi0=float(xi0))


def _cmd_general(args) -> int:
    opts = _merged_options(args, "general")
    path = opts.get("algebra")
    if not path:
        raise Sl2QesError("--algebra JSON path is required")
    with open(path) as handle:
        coeffs = AlgebraCoefficients.from_json_dict(json.load(handle))
    bp = b_polynomials(coeffs)

    if opts.get("u_transform", "identity") == "two-sqrt":
        transform = half_line_sqrt()
        x_lo = _coerce(opts, "x_min", float, 0.05)
        x_hi = _coerce(opts, "x_max", float, 10.0)
        if x_lo <= 0:
            raise Sl2QesError("two-sqrt transform needs x > 0")
    else:
        transform = identity_shift(_coerce(opts, "u_a", float, 0.0))
        x_lo = _coerce(opts, "x_min", float, -3.0)
        x_hi = _coerce(opts, "x_max", float, 3.0)

    branch = _general_branch(bp, opts)
    samples = _coerce(opts, "samples", int, 401)
    x = np.linspace(x_lo, x_hi, samples)
    u = transform.u(x)
    mapping = build_mapping(bp, branch, transform,
                            u_range=(float(np.min(u)), float(np.max(u))))

    solved = solve_algebraic_sector(coeffs.with_free_d())
    d_value = float(coeffs.d) if coeffs.d is not None else solved.levels[0].d
    e_conv = _coerce(opts, "e_convention", float, 0.0)
    pot = potential_from_operator(bp, d_value, mapping, e_conv,
                                  domain=(x_lo, x_hi))

    banner = ("general mode: normalizability of the reported levels is "
              "not validated")
    print(banner, file=sys.stderr)

    out_dir = str(opts.get("out_dir", "out"))
    v = np.asarray(pot(x), float)
    pipeline.write_csv_atomic(os.path.join(out_dir, "potential.csv"),
                              ["x", "V"], [x, v])

    doc = {
        "mode": "general",
        "algebra": coeffs.to_json_dict(),
        "branch": {"xi_min": branch.lo, "xi_max": branch.hi,
                   "sign": branch.sign, "xi0": branch.xi0},
        "d_used": d_value,
        "e_convention": e_conv,
        "levels": [lv.to_json_dict() for lv in solved.levels],
        "warnings": [banner],
    }
    pipeline.write_json_atomic(os.path.join(out_dir, "spectrum.json"), doc)

    x0 = float(x[len(x) // 2])
    gauge = build_gauge(bp, mapping, x0)
    cols = []
    for lv in solved.levels:
        psi = assemble_wavefunction(gauge, lv.b, mapping)
        cols.append(np.asarray(psi(x), float))
    pipeline.write_csv_atomic(
        os.path.join(out_dir, "wavefunctions.csv"),
        ["x"] + [f"psi_{j}" for j in range(len(cols))],
        [x] + cols,
    )
    print(f"wrote general-mode artifacts to {out_dir}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--family", help="catalog family name")
    for name in _PARAM_FLAGS:
        if name == "l":
            parser.add_argument("--l", type=int)
        else:
            parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--sign", choices=["+", "-"])
    parser.add_argument("--j-max", dest="j_max", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--json-samples", dest="json_samples",
                        action="store_const", const=True,
                        help="also write the samples as JSON arrays")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2qes",
        description="Construct solvable and quasi-solvable 1D potentials "
                    "from sl(2) operator data and verify them numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-families", help="describe the catalog")
    p_list.add_argument("--json-out", dest="json_out")

    p_build = sub.add_parser("build", help="emit potential, spectrum, "
                                           "wavefunction artifacts")
    _add_common_flags(p_build)

    p_verify = sub.add_parser("verify", help="build and check against the "
                                             "finite-difference oracle")
    _add_common_flags(p_verify)
    p_verify.add_argument("--points", type=int, help="override grid points")
    p_verify.add_argument("--tolerance", type=float)

    p_general = sub.add_parser("general", help="run raw coefficient data "
                                               "through the full pipeline")
    p_general.add_argument("--config", help="flat key=value config file")
    p_general.add_argument("--algebra", help="coefficient JSON path")
    p_general.add_argument("--u-transform", dest="u_transform",
                           choices=["identity", "two-sqrt"])
    p_general.add_argument("--u-a", dest="u_a", type=float)
    p_general.add_argument("--xi-min", dest="xi_min", type=float)
    p_general.add_argument("--xi-max", dest="xi_max", type=float)
    p_general.add_argument("--xi0", type=float)
    p_general.add_argument("--e-convention", dest="e_convention", type=float)
    p_general.add_argument("--x-min", dest="x_min", type=float)
    p_general.add_argument("--x-max", dest="x_max", type=float)
    p_general.add_argument("--samples", type=int)
    p_general.add_argument("--out-dir", dest="out_dir")
    return parser


_COMMANDS = {
    "list-families": _cmd_list_families,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "general": _cmd_general,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (Sl2QesError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
