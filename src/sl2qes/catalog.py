"""Named potential families: five exactly solvable, eight quasi-solvable.

One ``Family`` record per family holds its parameter names, their validity
predicates with the text ``list-families`` prints, whether it takes a sign
branch, and its class.  ``make_entry`` validates against the record and
builds an ``EsEntry`` (exactly solvable, ES) or a ``QesEntry``
(quasi-solvable, QES) from the family's data at n: the sl(2) coefficients
with d left free, an energy offset, the coordinate branch, the plot range
and, on a half line, the exponent s of psi ~ x^s at the wall, from which
the numeric cross-check (``pipeline``) expects its order of convergence;
it derives everything else from the entry.  Both kinds take every level
from one chain:
the algebraic-sector solve of the data with E = offset + d, and psi = the
gauge of the B polynomials (``mapping.build_gauge``, 1 at ``gauge_x0``)
times the level's polynomial.  The potential is that of the entry's own B
polynomials and map (``mapping.potential_from_operator``, which the
numeric cross-check solves), taken at the data's d (0 when free) and
E = offset + d.

ES: the data has no T+ term, so the sector matrix is upper triangular and
its eigenvalues are its diagonal entries; the state of diagonal entry j
has a polynomial of degree j.  The potential is the same at every n,
which the tests assert.  With d free, the sector at n <= the last bound
state holds levels 0..n, so an entry takes level j <= n from its own
sector and any other from the top state of the sector at n = j.  With
kappa_n = e2 / (2 (n + l + 1)):
- harmonic, xi = x: c-- = 1, c0 = -omega; offset (n + 1) omega/2.
- Morse, xi = exp(alpha x): c00 = alpha^2, c0 = alpha (n alpha - 2A),
  c- = 2 alpha B; offset -(A - n alpha/2)^2.
- Poschl-Teller, xi = cosh 2 alpha x: c00 = 4 alpha^2, c-- = -4 alpha^2,
  c0 = 4 alpha (B - A) + 4 n alpha^2, c- = 4 alpha (A + B);
  offset -(A - B - n alpha)^2.
- Scarf II, xi = sinh alpha x: c00 = c-- = alpha^2,
  c0 = n alpha^2 - 2 alpha A, c- = -2 alpha B; offset -(A - n alpha/2)^2.
- Coulomb, xi = u^2 = 4x under u = 2 sqrt(x): c0- = 2, c0 = -2 kappa_n,
  c- = 2 (4l + n + 3).  The stretch puts d on the 1/x coupling, not on
  the energy, so the data fixes d = n kappa_n, the top diagonal entry,
  and the offset -kappa_n (kappa_n + n) gives E_n = -kappa_n^2.  Its
  other sector states belong to other couplings, so each level comes
  from its own sector.
Where two Frobenius exponents give the same potential, the data picks
that of the bound states.

QES: n is fixed, d_j comes out of the algebraic-sector solve, and E_j =
offset + d_j.  All eight families follow one rule in (shape, sigma, dq).
sigma is the sign of the wavefunction exponent: -1, +1, s, s for periodic
v1-v4 and +1, -1, s, s for hyperbolic v1-v4, with s the sign branch.
q = n + dq with dq = 1, 1, 2, 0 (periodic) and 1, 1, 0, 2 (hyperbolic);
the sector holds 2n + 1 + dq states (``sector_count``); [dq=1] is 1 for
dq = 1, else 0.
- periodic, xi = cos beta(x-a): c+ = sigma alpha, c0 = -q beta^2,
  c- = -sigma alpha + [dq=1] s beta^2; offset ((q^2-1)/4) beta^2
  - alpha^2/(8 beta^2) + [dq=1] sigma s alpha/2.
- hyperbolic, xi = cosh 2gamma(x-a): c+ = 2 sigma gamma^2 eta,
  c0 = 4 q gamma^2, c- = -2 sigma gamma^2 eta + [dq=1] 4 s gamma^2;
  offset -(q^2 + [dq=1] sigma s eta) gamma^2; normalizable iff
  sigma eta < 0.
- the gauge is not written per family: ``mapping.build_gauge`` derives it
  from B4 and B3.  Its exponent carries sigma, and its prefactor follows
  from B4's roots +-1 and the residues of (2 B3 - B4')/(2 B4) there: each
  root with residue 1 gives the map's half-angle factor, cos/sin resp.
  cosh/sinh (theta/2) for xi = cos resp. cosh theta.  dq = 1 has one such
  root, picked by the sign; dq = 2 has both, whose product is sin resp.
  sinh at the full angle; dq = 0 has none.  A periodic family's states are
  therefore antiperiodic over one period for dq = 1 and periodic for dq =
  0 and 2; the numeric cross-check solves that class only, for the lowest
  ``sector_count()`` of its eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (AlgebraCoefficients, BPolynomials, b_polynomials,
                      finite_fraction)
from .errors import InvalidParameterError, NoBoundStateError
from .mapping import (
    Branch,
    GaugeFactor,
    Mapping,
    PotentialModel,
    WaveFunction,
    build_gauge,
    build_mapping,
    half_line_sqrt,
    identity_shift,
    potential_from_operator,
)
from .spectral import (
    Level,
    SpectralResult,
    compose_energies,
    solve_algebraic_sector,
)

__all__ = [
    "CatalogEntry",
    "EsEntry",
    "QesEntry",
    "make_entry",
    "list_families",
    "FAMILY_NAMES",
]


class Param(NamedTuple):
    """Validity predicate of one parameter, as documented and as checked."""

    doc: str
    holds: Callable | None = None   # (exact value, sigma, params) -> bool
    message: str = ""
    whole: bool = False             # a non-negative int, not a Fraction


@dataclass(frozen=True)
class Family:
    """One catalog family: what make_entry validates and list_families
    prints, plus its builder."""

    name: str
    kind: str                  # "es" | "qes-periodic" | "qes-hyperbolic"
    params: dict               # parameter name -> Param, in report order
    domain: str
    build: Callable            # (family, exact params, sign, n) -> entry
    energies: str = ""         # ES: the documented closed-form spectrum
    sigma: int | None = None   # QES exponent sign; None: the sign branch s
    dq: int = 0                # QES: q = n + dq

    @property
    def needs_sign(self) -> bool:
        return self.kind != "es"

    def validate(self, params: dict, sigma: int | None) -> dict:
        missing = [k for k in self.params if k not in params]
        if missing:
            raise InvalidParameterError(
                f"missing parameters: {', '.join(missing)}")
        out = {}
        for k, rule in self.params.items():
            out[k] = (_whole(params[k], rule.message) if rule.whole
                      else finite_fraction(k, params[k]))
            # params: this value and the ones converted before it
            if rule.holds is not None and not rule.holds(out[k], sigma, out):
                raise InvalidParameterError(rule.message)
        return out


@dataclass
class CatalogEntry:
    """The data at n and what the chain makes of it; ``EsEntry`` and
    ``QesEntry`` say which sector holds level j."""

    family: Family
    params: dict
    sign: int | None
    n: int
    algebra: AlgebraCoefficients
    bp: BPolynomials
    mapping: Mapping
    potential: PotentialModel
    plot_range: tuple[float, float]
    gauge_x0: float                # the gauge is 1 here
    energy_offset: float           # E = energy_offset + d
    # s of psi ~ x^s at a half line's wall x = 0 (None: no wall); the FD
    # oracle's stretched grid sees 2 s - 1/2 in u and checks only s >= 1
    wall_exponent: float | None = None
    _spectral: SpectralResult | None = field(default=None, init=False,
                                             repr=False)

    name = property(lambda self: self.family.name)
    kind = property(lambda self: self.family.kind)
    domain = property(lambda self: self.potential.domain)
    period = property(lambda self: self.potential.period)

    def spectral(self) -> SpectralResult:
        """Algebraic-sector levels of the data at n, energies composed."""
        if self._spectral is None:
            self._spectral = compose_energies(
                solve_algebraic_sector(self.algebra.with_free_d()),
                self.energy_offset)
        return self._spectral

    @cached_property
    def gauge(self) -> GaugeFactor:
        """The gauge factor B4 and B3 determine, 1 at gauge_x0."""
        return build_gauge(self.bp, self.mapping, self.gauge_x0)

    def level(self, j: int) -> Level:
        """Level j; raises NoBoundStateError where there is none."""
        return self._source(_level_index(j))[1]

    def closed_form_energy(self, j: int) -> float:
        return float(self.level(j).E)

    def closed_form_wavefunction(self, j: int) -> WaveFunction:
        """Unnormalized psi_j: its sector's gauge times the level's
        polynomial."""
        src, lv = self._source(_level_index(j))
        return WaveFunction(src.gauge, lv.b, src.mapping)

    def operator_potential_data(self, j: int):
        """(bp, d, E, mapping) for the operator-route potential at level j."""
        src, lv = self._source(_level_index(j))
        return (src.bp, lv.d, lv.E, src.mapping)


@dataclass(kw_only=True)
class EsEntry(CatalogEntry):
    max_j: int | None = None       # bound-state cap (None: all j)
    _sectors: dict = field(default_factory=dict, init=False, repr=False)

    def _source(self, j: int):
        """(sector, state) of level j: state j of this entry's sector when
        d is free and j <= n <= max_j, where the sector holds levels
        0..n, else the top state j of the sector at n = j."""
        if self.max_j is not None and j > self.max_j:
            raise NoBoundStateError(
                f"{self.name}: no bound state with index {j} "
                f"(highest is {self.max_j})"
            )
        own = (self.algebra.d is None and j <= self.n
               and (self.max_j is None or self.n <= self.max_j))
        src = self if own or j == self.n else self._sectors.get(j)
        if src is None:
            src = self._sectors[j] = self.family.build(
                self.family, self.params, self.sign, j)
        return src, src.spectral().levels[j]

    def verification_levels(self, j_max: int | None = None):
        """(index, energy) pairs the numeric oracle should reproduce;
        raises NoBoundStateError when there is none."""
        asked = 3 if j_max is None else j_max
        top = asked if self.max_j is None else min(asked, self.max_j)
        if top < 0:
            raise NoBoundStateError(
                f"{self.name}: no bound state up to j_max={asked}")
        return [(j, self.closed_form_energy(j)) for j in range(top + 1)]


@dataclass(kw_only=True)
class QesEntry(CatalogEntry):

    def _source(self, j: int):
        if j > self.n:
            raise NoBoundStateError(
                f"algebraic sector holds {self.n + 1} levels; index {j} is out"
            )
        return self, self.spectral().levels[j]

    def sector_count(self) -> int:
        return 2 * self.n + 1 + self.family.dq

    def verification_levels(self, j_max: int | None = None):
        """(index, energy) pairs the numeric oracle should reproduce."""
        return [(j, lv.E) for j, lv in enumerate(self.spectral().levels)]


# ---------------------------------------------------------------------------
# validation helpers

def _whole(value, message: str) -> int:
    """value as a non-negative int; bools and non-integral values fail."""
    try:
        q = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        q = None
    if q is None or q.denominator != 1 or q < 0:
        raise InvalidParameterError(message)
    return int(q)


def _level_index(j) -> int:
    if j < 0 or int(j) != j:
        raise NoBoundStateError("level index must be a non-negative integer")
    return int(j)


def _norm_sign(sign) -> int:
    if sign in (1, "+", "+1", "plus"):
        return 1
    if sign in (-1, "-", "-1", "minus"):
        return -1
    raise InvalidParameterError(f"sign branch must be '+' or '-', got {sign!r}")


def _positive(k: str, why: str = "") -> Param:
    return Param(f"{k} > 0", lambda v, sigma, p: v > 0,
                 f"{k} must be positive{why}")


def _nonzero(k: str) -> Param:
    return Param(f"{k} != 0", lambda v, sigma, p: v != 0,
                 f"{k} must be nonzero")


_REAL = Param("real")


def _bound_states_below(x: float) -> int:
    """Highest j with j < x (-1 if none): the ES bound-state cap."""
    return int(math.ceil(x - 1e-12)) - 1 if x > 0 else -1


def _entry(cls, fam, p, s, n, alg, offset, branch, transform,
           domain=(-np.inf, np.inf), period=None, **fields):
    """The entry of the data alg and its offset; its potential comes from
    its own B polynomials and map, at the data's d (0 when free) and
    E = offset + d."""
    bp = b_polynomials(alg)
    mapping = build_mapping(bp, branch, transform)
    d = alg.d_or_zero
    return cls(family=fam, params=p, sign=s, n=n, algebra=alg, bp=bp,
               mapping=mapping, potential=potential_from_operator(
                   bp, float(d), mapping, float(offset + d), domain, period),
               energy_offset=float(offset), **fields)


# ---------------------------------------------------------------------------
# exactly solvable entries: the data at n and the offset of the module
# docstring

def _harmonic(fam, p, s, n):
    w = p["omega"]
    return _entry(
        EsEntry, fam, p, None, n, AlgebraCoefficients(c_mm=1, c_0=-w, n=n),
        (n + 1) * w / 2, Branch(-np.inf, np.inf, sign=1, xi0=0.0),
        identity_shift(0.0),
        plot_range=(-5.0, 5.0), gauge_x0=0.0,
    )


def _morse(fam, p, s, n):
    al, A, B = p["alpha"], p["A"], p["B"]
    return _entry(
        EsEntry, fam, p, None, n,
        AlgebraCoefficients(c_00=al * al, c_0=al * (n * al - 2 * A),
                            c_m=2 * B * al, n=n),
        -(A - n * al / 2) ** 2, Branch(0.0, np.inf, sign=1, xi0=1.0),
        identity_shift(0.0),
        plot_range=(-2.5, 8.0), gauge_x0=0.0,
        max_j=_bound_states_below(float(A / al)),
    )


def _poschl_teller(fam, p, s, n):
    al, A, B = p["alpha"], p["A"], p["B"]
    return _entry(
        EsEntry, fam, p, None, n,
        AlgebraCoefficients(c_00=4 * al * al, c_mm=-4 * al * al,
                            c_0=4 * al * (B - A) + 4 * n * al * al,
                            c_m=4 * al * (A + B), n=n),
        -(A - B - n * al) ** 2, Branch(1.0, np.inf, sign=1, xi0=1.0),
        identity_shift(0.0), domain=(0.0, np.inf),
        plot_range=(0.02, 8.0), gauge_x0=1.0, wall_exponent=float(B / al),
        # bound states need A - B - 2 j alpha > 0
        max_j=_bound_states_below(float((A - B) / (2 * al))),
    )


def _scarf_ii(fam, p, s, n):
    al, A, B = p["alpha"], p["A"], p["B"]
    return _entry(
        EsEntry, fam, p, None, n,
        AlgebraCoefficients(c_00=al * al, c_mm=al * al,
                            c_0=n * al * al - 2 * al * A, c_m=-2 * al * B,
                            n=n),
        -(A - n * al / 2) ** 2, Branch(-np.inf, np.inf, sign=1, xi0=0.0),
        identity_shift(0.0),
        plot_range=(-8.0, 8.0), gauge_x0=0.0,
        max_j=_bound_states_below(float(A / al)),
    )


def _coulomb(fam, p, s, n):
    e2, l = p["e2"], p["l"]
    kappa = e2 / (2 * (n + l + 1))
    return _entry(
        EsEntry, fam, p, None, n,
        AlgebraCoefficients(c_0m=2, c_0=-2 * kappa, c_m=2 * (4 * l + n + 3),
                            d=n * kappa, n=n),
        -kappa * (kappa + n), Branch(0.0, np.inf, sign=1, xi0=0.0),
        half_line_sqrt(), domain=(0.0, np.inf),
        plot_range=(0.05, 40.0), gauge_x0=1.0, wall_exponent=float(l + 1),
    )


# ---------------------------------------------------------------------------
# quasi-solvable entries: one construction path per shape, driven by the
# family's (sigma, dq) row as in the module docstring

def _qes_row(fam, s, n):
    """(sigma, dq, q) of the family at sign branch s and index n."""
    return fam.sigma or s, fam.dq, n + fam.dq


def _periodic(fam, p, s, n):
    sigma, dq, q = _qes_row(fam, s, n)
    al, be = p["alpha"], p["beta"]
    alf, bef, af = float(al), float(be), float(p["a"])
    period = 2.0 * math.pi / abs(bef)
    offset = ((q * q - 1) / 4.0) * bef ** 2 - alf ** 2 / (8.0 * bef ** 2)
    if dq == 1:
        offset += sigma * s * alf / 2.0

    alg = AlgebraCoefficients(
        c_00=-be * be, c_mm=be * be, c_p=sigma * al, c_0=-q * be * be,
        c_m=-sigma * al + (s * be * be if dq == 1 else 0), d=None, n=n,
    )
    return _entry(
        QesEntry, fam, p, s, n, alg, offset,
        Branch(-1.0, 1.0, sign=-1, xi0=1.0), identity_shift(af), period=period,
        plot_range=(af, af + period), gauge_x0=af + period / 4.0,
    )


def _hyperbolic(fam, p, s, n):
    sigma, dq, q = _qes_row(fam, s, n)
    ga, eta = p["gamma"], p["eta"]
    gaf, etf, af = float(ga), float(eta), float(p["a"])
    offset = -(q * q + (sigma * s * etf if dq == 1 else 0)) * gaf ** 2

    alg = AlgebraCoefficients(
        c_00=4 * ga * ga, c_mm=-4 * ga * ga, c_p=sigma * 2 * ga * ga * eta,
        c_0=4 * q * ga * ga,
        c_m=-sigma * 2 * ga * ga * eta + (4 * s * ga * ga if dq == 1 else 0),
        d=None, n=n,
    )
    return _entry(
        QesEntry, fam, p, s, n, alg, offset,
        Branch(1.0, np.inf, sign=1, xi0=1.0), identity_shift(af),
        plot_range=(af - 3.0, af + 3.0), gauge_x0=af + 1.0,
    )


# ---------------------------------------------------------------------------
# the catalog

_PERIODIC = {"alpha": _nonzero("alpha"), "beta": _nonzero("beta"), "a": _REAL}
_PERIODIC_DOMAIN = "(-inf, inf), period 2 pi / |beta|"


def _hyperbolic_params(eta_doc: str) -> dict:
    """gamma, eta, a; every family needs sigma * eta < 0 (eta_doc)."""
    eta = Param(eta_doc, lambda v, sigma, p: sigma * v < 0,
                f"{eta_doc} is needed for a normalizable wavefunction")
    return {"gamma": _nonzero("gamma"), "eta": eta, "a": _REAL}


_FAMILIES = {fam.name: fam for fam in (
    Family("harmonic", "es", {"omega": _positive("omega")}, "(-inf, inf)",
           _harmonic, energies="E_j = (j + 1/2) omega for every j >= 0"),
    Family("morse", "es",
           {"alpha": _positive("alpha"), "A": _REAL,
            "B": _positive("B", " for a normalizable ground state")},
           "(-inf, inf)", _morse,
           energies="E_j = -(A - j alpha)^2 for j < A/alpha"),
    Family("poschl-teller", "es",
           {"alpha": _positive("alpha"), "A": _REAL,
            "B": Param("B >= alpha/2", lambda v, sigma, p: v >= p["alpha"] / 2,
                       "B >= alpha/2 is needed: below alpha/2 the potential "
                       "is the one of alpha - B")},
           "(0, inf)", _poschl_teller,
           energies="E_j = -(A - B - 2 j alpha)^2 for j < (A-B)/(2 alpha)"),
    Family("scarf-ii", "es",
           {"alpha": _positive("alpha"), "A": _REAL, "B": _REAL},
           "(-inf, inf)", _scarf_ii,
           energies="E_j = -(A - j alpha)^2 for j < A/alpha"),
    Family("coulomb", "es",
           {"e2": _positive("e2"),
            "l": Param("integer l >= 0", whole=True,
                       message="l must be a non-negative integer")},
           "(0, inf)", _coulomb,
           energies="E_j = -e2^2 / (4 (j + l + 1)^2) for every j >= 0"),
    Family("periodic-v1", "qes-periodic", _PERIODIC, _PERIODIC_DOMAIN,
           _periodic, sigma=-1, dq=1),
    Family("periodic-v2", "qes-periodic", _PERIODIC, _PERIODIC_DOMAIN,
           _periodic, sigma=+1, dq=1),
    Family("periodic-v3", "qes-periodic", _PERIODIC, _PERIODIC_DOMAIN,
           _periodic, dq=2),
    Family("periodic-v4", "qes-periodic", _PERIODIC, _PERIODIC_DOMAIN,
           _periodic, dq=0),
    Family("hyperbolic-v1", "qes-hyperbolic", _hyperbolic_params("eta < 0"),
           "(-inf, inf)", _hyperbolic, sigma=+1, dq=1),
    Family("hyperbolic-v2", "qes-hyperbolic", _hyperbolic_params("eta > 0"),
           "(-inf, inf)", _hyperbolic, sigma=-1, dq=1),
    Family("hyperbolic-v3", "qes-hyperbolic",
           _hyperbolic_params("sign * eta < 0"), "(-inf, inf)", _hyperbolic,
           dq=0),
    Family("hyperbolic-v4", "qes-hyperbolic",
           _hyperbolic_params("sign * eta < 0"), "(-inf, inf)", _hyperbolic,
           dq=2),
)}
FAMILY_NAMES = tuple(_FAMILIES)


def make_entry(name: str, params: dict, sign=None, n: int = 0) -> CatalogEntry:
    """Construct a named family entry; rejects invalid parameters with the
    failing predicate spelled out."""
    fam = _FAMILIES.get(name.lower().replace("_", "-"))
    if fam is None:
        raise InvalidParameterError(
            f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    n = _whole(n, "n must be a non-negative integer")
    s = None
    if fam.needs_sign:
        if sign is None:
            raise InvalidParameterError(
                f"{fam.name} needs a sign branch ('+' or '-')")
        s = _norm_sign(sign)
    return fam.build(fam, fam.validate(params, fam.sigma or s), s, n)


_CLASS = {"es": "exactly-solvable", "qes-periodic": "quasi-solvable-periodic",
          "qes-hyperbolic": "quasi-solvable-hyperbolic"}
_SECTOR_COUNT = {0: "2n+1", 1: "2(n+1)", 2: "2n+3"}   # 2m by dq


def list_families() -> list[dict]:
    """Machine-readable catalog description (also the list-families output)."""
    out = []
    for fam in _FAMILIES.values():
        item = {
            "name": fam.name,
            "class": _CLASS[fam.kind],
            "params": {k: rule.doc for k, rule in fam.params.items()},
            "sign_branches": ["+", "-"] if fam.needs_sign else [],
            "domain": fam.domain,
        }
        if fam.kind == "es":
            item["energies"] = fam.energies
        else:
            if fam.kind == "qes-periodic":
                item["period"] = "2*pi/|beta|"
            item["sector_count"] = _SECTOR_COUNT[fam.dq]
        out.append(item)
    return out
