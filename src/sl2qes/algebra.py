"""Exact-arithmetic core: sl(2) generators acting on bounded-degree polynomials.

The degree-n representation acts on polynomials in xi of degree at most n:

    T+ xi^r = (r - n) xi^(r+1)      (annihilates xi^n, so P_n is invariant)
    T0 xi^r = (r - n/2) xi^r
    T- xi^r = r xi^(r-1)

Each generator sends a monomial to one monomial, so both matrix routes
below work one monomial at a time and the Hamiltonian matrix is banded.

A Hamiltonian is a quadratic combination of the generators with constant
coefficients plus a constant shift d.  On P_n it acts as the differential
operator -(B4 D^2 + B3 D + B2) whose polynomial coefficients are assembled
by :func:`b_polynomials`.  Everything here is exact: `fractions.Fraction`
values, or the int numerators over one denominator that
:func:`hamiltonian_matrix` returns.  Identities are tested with zero
tolerance, so this module must not introduce floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import InvalidParameterError, RepresentationError

__all__ = [
    "Generator",
    "Polynomial",
    "AlgebraCoefficients",
    "BPolynomials",
    "as_fraction",
    "finite_fraction",
    "poly_gcd",
    "apply_generator",
    "commutator",
    "b_polynomials",
    "apply_operator",
    "hamiltonian_matrix",
    "hamiltonian_matrix_from_b",
]


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings, Fractions and floats (binary-exact) to Fraction."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, (int, str, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def finite_fraction(name: str, value) -> Fraction:
    """value as an exact Fraction that a float can hold; anything else
    raises InvalidParameterError naming `name`."""
    try:
        q = as_fraction(value)
        float(q)    # OverflowError beyond the float range
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidParameterError(
            f"{name} must be a finite real number within the float range, "
            f"got {value!r}") from None
    return q


class Generator(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients, ascending powers.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1 by convention.
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs) -> "Polynomial":
        return cls._make([as_fraction(c) for c in coeffs])

    @classmethod
    def _make(cls, coeffs) -> "Polynomial":
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return cls(tuple(c if type(c) is Fraction else Fraction(c)
                         for c in trimmed))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        c = as_fraction(coeff)
        if power < 0:
            raise ValueError("power must be non-negative")
        if c == 0:
            return cls(())
        return cls(tuple([Fraction(0)] * power) + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._make(
            [self.coefficient(r) + other.coefficient(r) for r in range(n)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial._make(out)
        c = as_fraction(other)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial._make(
            [r * c for r, c in enumerate(self.coeffs)][1:]
        )

    def __divmod__(self, other: "Polynomial"):
        """Exact polynomial long division: self = q * other + r."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(len(rem) - dn, 0)
        while len(rem) - 1 >= dn and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            shift = len(rem) - 1 - dn
            factor = rem[-1] / lead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return Polynomial._make(q), Polynomial._make(rem)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self * (1 / self.coeffs[-1])

    def __call__(self, x):
        """Horner evaluation. Exact for Fraction/int arguments, float otherwise
        (on coefficients converted to floats once per polynomial)."""
        if isinstance(x, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0 * x  # works for float and numpy arrays alike
        for c in self._float_desc:
            acc = acc * x + c
        return acc

    @cached_property
    def _float_desc(self) -> tuple[float, ...]:   # highest power first
        return tuple(float(c) for c in reversed(self.coeffs))

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals (Euclid).

    When either argument is a nonzero polynomial of degree <= 1, one exact
    evaluation decides it: a constant has gcd 1 with anything, and a linear
    p divides the other exactly when the other vanishes at p's root.
    """
    one = Polynomial((Fraction(1),))
    for p, q in ((a, b), (b, a)):
        if p.degree == 0:
            return one
        if p.degree == 1:
            return p.monic() if q(-p.coeffs[0] / p.coeffs[1]) == 0 else one
    x, y = a, b
    while not y.is_zero:
        _, r = divmod(x, y)
        x, y = y, r
    if x.is_zero:
        return x
    return x.monic()


def _monomial_image(g: Generator, r: int, n: int):
    """T^g xi^r as (power, twice), T^g xi^r = (twice / 2) xi^power with an
    int twice, or None when it vanishes: the only place where the three
    rules of the degree-n representation are written."""
    if g is Generator.PLUS:
        # (r - n) kills xi^n: P_n is invariant
        power, twice = r + 1, 2 * (r - n)
    elif g is Generator.ZERO:
        power, twice = r, 2 * r - n
    elif g is Generator.MINUS:
        power, twice = r - 1, 2 * r
    else:
        raise TypeError(f"unknown generator {g!r}")
    return None if twice == 0 else (power, twice)


def apply_generator(g: Generator, p: Polynomial, n: int) -> Polynomial:
    """Apply one sl(2) generator to p inside the degree-n representation."""
    if n < 0:
        raise InvalidParameterError("representation index n must be non-negative")
    if p.degree > n:
        raise RepresentationError(
            f"degree {p.degree} polynomial lies outside P_{n}"
        )
    out = [Fraction(0)] * (n + 1)
    for r, coeff in enumerate(p.coeffs):
        image = _monomial_image(g, r, n)
        if image is not None:
            out[image[0]] += coeff * image[1] / 2
    return Polynomial._make(out)


def commutator(g1: Generator, g2: Generator, p: Polynomial, n: int) -> Polynomial:
    """(T^g1 T^g2 - T^g2 T^g1) p, exactly."""
    a = apply_generator(g1, apply_generator(g2, p, n), n)
    b = apply_generator(g2, apply_generator(g1, p, n), n)
    return a - b


@dataclass(frozen=True)
class AlgebraCoefficients:
    """Quadratic-combination data: symmetric C_ab (with the +- entry removed),
    linear C_a, the constant shift d, and the representation index n.

    The mixed +- coefficient does not exist in this model: constancy of the
    quadratic invariant lets it be absorbed, so the invalid state is simply
    unrepresentable.  d is None when it is left free (the quasi-solvable
    workflow, where the admissible d values come out of the spectral solve).
    """

    c_pp: Fraction = Fraction(0)
    c_p0: Fraction = Fraction(0)
    c_00: Fraction = Fraction(0)
    c_0m: Fraction = Fraction(0)
    c_mm: Fraction = Fraction(0)
    c_p: Fraction = Fraction(0)
    c_0: Fraction = Fraction(0)
    c_m: Fraction = Fraction(0)
    d: Fraction | None = None
    n: int = 0

    def __post_init__(self):
        for name in ("c_pp", "c_p0", "c_00", "c_0m", "c_mm", "c_p", "c_0", "c_m"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.d is not None:
            object.__setattr__(self, "d", as_fraction(self.d))
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParameterError("n must be a non-negative integer")
        if not any(
            getattr(self, k) != 0 for k in ("c_pp", "c_p0", "c_00", "c_0m", "c_mm")
        ):
            raise InvalidParameterError(
                "at least one quadratic coefficient must be nonzero"
            )

    @property
    def d_or_zero(self) -> Fraction:
        return Fraction(0) if self.d is None else self.d

    def with_free_d(self) -> "AlgebraCoefficients":
        return replace(self, d=None)

    # JSON wire format: rationals as "p/q" strings, free d as the string "free".
    _JSON_KEYS = (
        ("C++", "c_pp"),
        ("C+0", "c_p0"),
        ("C00", "c_00"),
        ("C0-", "c_0m"),
        ("C--", "c_mm"),
        ("C+", "c_p"),
        ("C0", "c_0"),
        ("C-", "c_m"),
    )

    def to_json_dict(self) -> dict:
        out = {key: str(getattr(self, attr)) for key, attr in self._JSON_KEYS}
        out["d"] = "free" if self.d is None else str(self.d)
        out["n"] = self.n
        return out

    @classmethod
    def from_json_dict(cls, data) -> "AlgebraCoefficients":
        """The coefficients of a wire-format object.  A key outside the
        format, a coefficient that is not a finite number within the float
        range, or an n that is not a JSON integer >= 0 raises
        InvalidParameterError naming the key."""
        if not isinstance(data, dict):
            raise InvalidParameterError(
                f"coefficient data must be a JSON object, got {data!r}")
        known = [key for key, _ in cls._JSON_KEYS] + ["d", "n"]
        for key in data:
            if key not in known:
                raise InvalidParameterError(
                    f"unknown coefficient key {key!r}; known: "
                    f"{', '.join(known)}")
        n = data.get("n")
        if type(n) is not int or n < 0:
            got = f"got {n!r}" if "n" in data else "it is missing"
            raise InvalidParameterError(f"n must be a JSON integer >= 0; "
                                        f"{got}")
        kwargs = {attr: finite_fraction(key, data[key])
                  for key, attr in cls._JSON_KEYS if key in data}
        d = data.get("d", "free")
        return cls(**kwargs, d=None if d == "free" else finite_fraction("d", d),
                   n=n)


@dataclass(frozen=True)
class BPolynomials:
    """Coefficient polynomials of the induced operator -(B4 D^2 + B3 D + B2).

    b2_base excludes the shift d (the full zeroth-order coefficient is
    b2_base + d); a2 is the linear-generator part, kept because the b3/b2
    assembly identities are stated through it.
    """

    b4: Polynomial
    b3: Polynomial
    b2_base: Polynomial
    a2: Polynomial

    def b2(self, d) -> Polynomial:
        return self.b2_base + Polynomial.of(as_fraction(d))


def b_polynomials(c: AlgebraCoefficients) -> BPolynomials:
    """Assemble B4, B3, B2 (without d) and A2 from the coefficient data."""
    b4 = Polynomial.of(c.c_mm, 2 * c.c_0m, c.c_00, 2 * c.c_p0, c.c_pp)
    a2 = Polynomial.of(c.c_m, c.c_0, c.c_p)
    n = c.n
    b3 = Fraction(1 - n, 2) * b4.derivative() + a2
    b2_base = (
        Fraction(n * (n - 1), 12) * b4.derivative().derivative()
        - Fraction(n, 2) * a2.derivative()
        + Polynomial.of(Fraction(n * (n + 2), 12) * c.c_00)
    )
    return BPolynomials(b4=b4, b3=b3, b2_base=b2_base, a2=a2)


def apply_operator(bp: BPolynomials, d, p: Polynomial) -> Polynomial:
    """Apply -(B4 p'' + B3 p' + (B2_base + d) p), exactly."""
    dp = p.derivative()
    d2p = dp.derivative()
    out = bp.b4 * d2p + bp.b3 * dp + bp.b2_base * p + as_fraction(d) * p
    return -out


# (word, coefficient): the word's generators act right to left on xi^r.
_TERMS = (
    ((Generator.PLUS, Generator.PLUS), "c_pp"),
    ((Generator.PLUS, Generator.ZERO), "c_p0"),
    ((Generator.ZERO, Generator.PLUS), "c_p0"),
    ((Generator.ZERO, Generator.ZERO), "c_00"),
    ((Generator.ZERO, Generator.MINUS), "c_0m"),
    ((Generator.MINUS, Generator.ZERO), "c_0m"),
    ((Generator.MINUS, Generator.MINUS), "c_mm"),
    ((Generator.PLUS,), "c_p"),
    ((Generator.ZERO,), "c_0"),
    ((Generator.MINUS,), "c_m"),
)


def _word_image(word, r: int, n: int):
    """The word of generators applied to xi^r, as (power, scaled) with
    T^word xi^r = scaled / 2^len(word) xi^power, or None."""
    power, scaled = r, 1
    for g in reversed(word):
        image = _monomial_image(g, power, n)
        if image is None:
            return None
        power, scaled = image[0], scaled * image[1]
    return power, scaled


def hamiltonian_matrix(c: AlgebraCoefficients) -> tuple[list[list[int]], int]:
    """(n+1) x (n+1) matrix of the Hamiltonian on the monomial basis, as
    (numerators, den): entry [i][r] is exactly numerators[i][r] / den, with
    int numerators over one positive int denominator.

    Built by composing generator applications; column r holds the image of
    xi^r, basis ordered by ascending power.  Each word sends a monomial to
    one monomial, so a column has at most 5 nonzeros.  The entries are
    summed as integer numerators over the one common denominator, and no
    Fraction is made per entry: the assembly costs O(n) integer
    operations.  A free d is treated as zero.
    """
    n, d = c.n, c.d_or_zero
    terms = [(word, getattr(c, attr)) for word, attr in _TERMS
             if getattr(c, attr) != 0]
    # a word of k generators divides its scaled image by 2^k
    den = math.lcm(d.denominator, *(coeff.denominator << len(word)
                                    for word, coeff in terms))
    terms = [(word, coeff.numerator
              * (den // (coeff.denominator << len(word))))
             for word, coeff in terms]
    shift = -d.numerator * (den // d.denominator)
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for r in range(n + 1):
        mat[r][r] = shift
        for word, scale in terms:
            image = _word_image(word, r, n)
            if image is None:
                continue
            power, scaled = image
            if power > n:
                raise RepresentationError("generator composition left P_n")
            mat[power][r] -= scale * scaled
    return mat, den


def hamiltonian_matrix_from_b(bp: BPolynomials, d, n: int) -> list[list[Fraction]]:
    """Same matrix, assembled through the differential-operator route.

    Column r is -(B4 D^2 + B3 D + B2_base + d) xi^r, summed as the products
    of each B polynomial with the monomial D^k xi^r.  Independent of
    :func:`hamiltonian_matrix`; the two constructions must agree exactly,
    which the test suite checks on random inputs.
    """
    k = n + 1
    terms = ((bp.b4, 2), (bp.b3, 1), (bp.b2(d), 0))   # (B, derivative order)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for r in range(k):
        image: dict[int, Fraction] = {}
        for poly, order in terms:
            factor = math.perm(r, order)   # D^order xi^r = factor xi^(r-order)
            if factor == 0:
                continue
            for i, b in enumerate(poly.coeffs):
                power = r - order + i
                image[power] = image.get(power, Fraction(0)) - factor * b
        leaked = [p for p, v in image.items() if p > n and v != 0]
        if leaked:
            raise RepresentationError(
                "operator does not preserve P_n; coefficient leakage at "
                f"degree {max(leaked)}"
            )
        for i, value in image.items():
            if i <= n:
                mat[i][r] = value
    return mat
