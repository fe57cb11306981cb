"""Case lists of the three benchmark workloads, generated from a seed.

A case is one end-to-end request to the ``sl2qes`` command line.  The same
(workload, seed) pair always yields the same list; the package only ever
sees the generated arguments.  Parameter draws stay inside each family's
documented validity predicate (``sl2qes list-families``).

Cases marked ``known_defect`` reproduce defects that are open in ROADMAP.md.
They stay in the workloads so that the defects show in ``fail_frac`` and
``max_err_ratio``; their failure does not make a run incorrect, and their
passing (once fixed) does not either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("catalog-verify", "sector-build", "general-numeric")

ES_FAMILIES = ("harmonic", "morse", "poschl-teller", "scarf-ii", "coulomb")
PERIODIC = ("periodic-v1", "periodic-v2", "periodic-v3", "periodic-v4")
HYPERBOLIC = ("hyperbolic-v1", "hyperbolic-v2", "hyperbolic-v3",
              "hyperbolic-v4")

# The 14 cases of scripts/verify_catalog.py, copied so that the workload stays
# fixed when that script changes.
CATALOG_DEFAULTS = (
    ("harmonic", {"omega": 2}, None, 3),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1),
    ("coulomb", {"e2": 2, "l": 0}, None, 2),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1),
)

# Off-default parameter sets of ROADMAP item 3 (open defects).
CATALOG_DEFECTS = (
    ("morse", {"alpha": 0.5, "A": 4, "B": 2}, None, 7,
     "ROADMAP item 3: the fixed x_min = -2.8 cuts the Morse well"),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 6,
     "ROADMAP item 3: k = levels + 6 misses the top algebraic level"),
)

# n of the seeded catalog draws, the same sizes on every seed.
DIRICHLET_NS = (0, 1, 2, 3)
PERIODIC_NS = (1, 3)
SECTOR_NS = (20, 80, 160)
# At n = 160, xi^n with xi = cosh(2 gamma (x - a)) overflows on the plot
# range a +- 3 once |gamma| > ~0.87, and wavefunctions.csv gets non-finite
# columns.  Two of the four hyperbolic families draw |gamma| above that
# threshold in every run and two below, so the defect shows at the same rate
# on every seed.
GAMMA_BELOW_OVERFLOW = (0.5, 0.8)
GAMMA_ABOVE_OVERFLOW = (1.0, 1.5)
OVERFLOW_DEFECT = ("non-finite wavefunction samples for hyperbolic families "
                   "at n = 160 (xi^n overflows)")

GENERAL_NS = (2, 4, 8)
GENERAL_C0M = ("1/4", "1/3", "-1/4", "-1/3")
GENERAL_CMM = ("3/2", "5/2")
FINITE_U_DEFECT = ("ROADMAP item 3: B4 = (xi^2 + 1)^2 has finite total u; "
                   "the march reports 'not monotone'")


@dataclass(frozen=True)
class Case:
    """One request: the subcommand, its catalog data or coefficient JSON."""

    case_id: str
    command: str                       # "verify" | "build" | "general"
    family: str | None = None
    params: dict = field(default_factory=dict)
    sign: str | None = None
    n: int = 0
    algebra: dict | None = None        # general mode coefficient JSON
    x_range: tuple[float, float] | None = None
    known_defect: str | None = None

    def argv(self, out_dir: str, algebra_path: str | None = None) -> list[str]:
        """Arguments for ``sl2qes.cli.main``."""
        if self.command == "general":
            lo, hi = self.x_range
            return ["general", "--algebra", algebra_path,
                    "--x-min", repr(lo), "--x-max", repr(hi),
                    "--out-dir", out_dir]
        args = [self.command, "--family", self.family]
        for key, value in self.params.items():
            args += [f"--{key}", repr(value)]
        if self.sign is not None:
            args += ["--sign", self.sign]
        args += ["--n", str(self.n)]
        if self.command == "verify":
            args += ["--j-max", str(self.n)]
        return args + ["--out-dir", out_dir]



def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _pm(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1, 1)) * _u(rng, lo, hi)


def _hyperbolic_params(rng, family, sign, gamma_range):
    eta = _u(rng, 0.5, 2.5)
    if family == "hyperbolic-v1" or (family in ("hyperbolic-v3",
                                                "hyperbolic-v4")
                                     and sign == "+"):
        eta = -eta
    return {"gamma": rng.choice((-1, 1)) * _u(rng, *gamma_range),
            "eta": eta, "a": _u(rng, -1.0, 1.0)}


def _depth(rng: random.Random, unit: float, n: int) -> float:
    """A well depth holding n + 1 levels, the top one still 0.6-0.95 units
    deep.  Levels within a few tenths of the continuum and Morse wells with
    alpha < 1 fail today because the FD windows are fixed (ROADMAP item 3,
    shown by CATALOG_DEFECTS), so the draws stay clear of them."""
    return round(unit * (n + rng.uniform(0.6, 0.95)), 3)


def _catalog_draw(rng: random.Random, family: str, n: int):
    """(params, sign) inside the family's predicate for level count n."""
    if family == "harmonic":
        return {"omega": _u(rng, 0.5, 4.0)}, None
    if family in ("morse", "scarf-ii"):
        alpha = _u(rng, 1.0, 1.5) if family == "morse" else _u(rng, 0.8, 1.5)
        return ({"alpha": alpha, "A": _depth(rng, alpha, n),
                 "B": _u(rng, 1.0, 1.5)}, None)
    if family == "poschl-teller":
        alpha = _u(rng, 0.8, 1.5)
        b = round(alpha * rng.uniform(1.0, 2.0), 3)
        return ({"alpha": alpha, "A": round(b + _depth(rng, 2 * alpha, n), 3),
                 "B": b}, None)
    if family == "coulomb":
        return {"e2": _u(rng, 1.5, 3.0), "l": rng.randint(0, 2)}, None
    sign = rng.choice("+-")
    if family in PERIODIC:
        return ({"alpha": _pm(rng, 0.5, 1.5), "beta": _pm(rng, 0.75, 1.5),
                 "a": _u(rng, -1.0, 1.0)}, sign)
    return _hyperbolic_params(rng, family, sign, (0.75, 1.25)), sign


def catalog_verify(seed: int) -> list[Case]:
    rng = random.Random(f"catalog-verify:{seed}")
    cases = [Case(f"default-{i:02d}-{fam}", "verify", fam, dict(p), s, n)
             for i, (fam, p, s, n) in enumerate(CATALOG_DEFAULTS)]
    cases += [Case(f"defect-{i}-{fam}", "verify", fam, dict(p), s, n,
                   known_defect=why)
              for i, (fam, p, s, n, why) in enumerate(CATALOG_DEFECTS)]
    # Enough periodic cases that the tail percentile falls inside the dense
    # band-edge solves, and enough Dirichlet cases that the median falls
    # inside the tridiagonal ones.
    for fam in ES_FAMILIES + PERIODIC + HYPERBOLIC:
        for n in PERIODIC_NS if fam in PERIODIC else DIRICHLET_NS:
            params, sign = _catalog_draw(rng, fam, n)
            cases.append(Case(f"seeded-{fam}-n{n}", "verify", fam, params,
                              sign, n))
    return cases


def sector_build(seed: int) -> list[Case]:
    rng = random.Random(f"sector-build:{seed}")
    above = set(rng.sample(HYPERBOLIC, 2))
    cases = []
    for n in SECTOR_NS:
        for fam in PERIODIC + HYPERBOLIC:
            sign = rng.choice("+-")
            defect = None
            if fam in PERIODIC:
                params = {"alpha": _pm(rng, 0.5, 2.0),
                          "beta": _pm(rng, 0.5, 2.0), "a": _u(rng, -1.0, 1.0)}
            elif n == 160:
                overflow = fam in above
                params = _hyperbolic_params(
                    rng, fam, sign,
                    GAMMA_ABOVE_OVERFLOW if overflow else GAMMA_BELOW_OVERFLOW)
                defect = OVERFLOW_DEFECT if overflow else None
            else:
                params = _hyperbolic_params(rng, fam, sign, (0.5, 1.5))
            cases.append(Case(f"{fam}-n{n}", "build", fam, params, sign, n,
                              known_defect=defect))
    return cases


def general_numeric(seed: int) -> list[Case]:
    """Quadratic B4 with a linear term (no closed-form shape) and no raising
    terms, so the sector matrix is triangular with a real spectrum; plus the
    finite-u-range quartic."""
    rng = random.Random(f"general-numeric:{seed}")
    # B4 = C-- + 2 C0- xi - xi^2 with C-- > 0 is positive on a bounded
    # branch whose half-width in u is pi / 2 for any C0- and C--; x = +-1
    # stays inside it.  Every run takes each (C0-, C--) pair once, in seeded
    # order and with seeded linear terms, because the pair sets the branch
    # geometry and with it the march cost.
    shapes = [(c0m, cmm) for c0m in GENERAL_C0M for cmm in GENERAL_CMM]
    rng.shuffle(shapes)
    cases = []
    for k, (c0m, cmm) in enumerate(shapes):
        data = {"C++": "0", "C+0": "0", "C00": "-1", "C0-": c0m, "C--": cmm,
                "C+": "0", "C0": rng.choice(("-1", "-1/2", "1/2", "1")),
                "C-": rng.choice(("-1/3", "1/4", "1/3", "1/2")), "d": "free"}
        for n in GENERAL_NS:
            cases.append(Case(f"set{k}-n{n}", "general", n=n,
                              algebra=dict(data, n=n), x_range=(-1.0, 1.0)))
    finite_u = {"C++": "1", "C+0": "0", "C00": "2", "C0-": "0", "C--": "1",
                "C+": "0", "C0": "0", "C-": "0", "d": "free", "n": 2}
    cases.append(Case("finite-u-n2", "general", n=2, algebra=finite_u,
                      x_range=(-2.0, 2.0), known_defect=FINITE_U_DEFECT))
    return cases


GENERATORS = {
    "catalog-verify": catalog_verify,
    "sector-build": sector_build,
    "general-numeric": general_numeric,
}

# The case whose artifacts are compared byte for byte between its warm-up
# run and its timed run.
RERUN_CASE = {
    "catalog-verify": "default-00-harmonic",
    "sector-build": "periodic-v1-n20",
    "general-numeric": "set0-n2",
}


def generate(workload: str, seed: int) -> list[Case]:
    return GENERATORS[workload](seed)
