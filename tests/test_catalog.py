import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2qes.algebra import Polynomial, b_polynomials, hamiltonian_matrix
from sl2qes.catalog import list_families, make_entry
from sl2qes.errors import InvalidParameterError, NoBoundStateError
from sl2qes.fdsolve import SQRT_STRETCH, Grid, count_nodes
from sl2qes.mapping import GaugeFactor, GaugeSamples, WaveFunction

from oracles import (
    closed_form_energy,
    closed_form_psi,
    fraction_matrix,
    hand_written_potential,
    quadrature_gauge,
    residual,
)


def poly(*coeffs):
    return Polynomial.of(*coeffs)


# ----------------------------------------------- operator data round trips
# Expected B3 / B2 are written out independently from the published family
# data; the entries must reproduce them exactly in rational arithmetic.

def expected_es(name, p, n):
    """(B4, B3, B2 at the data's d) of the family's data at n."""
    if name == "harmonic":
        w = p["omega"]
        return (poly(1), poly(0, -w), poly(n * w / 2))
    if name == "morse":
        al, A, B = p["alpha"], p["A"], p["B"]
        return (poly(0, 0, al * al),
                poly(2 * B * al, al * (al - 2 * A)),
                poly(n * A * al - n * n * al * al / 4))
    if name == "poschl-teller":
        al, A, B = p["alpha"], p["A"], p["B"]
        return (poly(-4 * al * al, 0, 4 * al * al),
                poly(4 * al * (A + B), 4 * al * (al + B - A)),
                poly(2 * n * al * (A - B) - n * n * al * al))
    if name == "scarf-ii":
        al, A, B = p["alpha"], p["A"], p["B"]
        return (poly(al * al, 0, al * al),
                poly(-2 * B * al, al * (al - 2 * A)),
                poly(n * A * al - n * n * al * al / 4))
    if name == "coulomb":
        e2, l = p["e2"], p["l"]
        return (poly(0, 4),
                poly(8 * (l + 1), -e2 / (n + l + 1)),
                poly(n * e2 / (n + l + 1)))
    raise KeyError(name)


@pytest.mark.parametrize("name,params", [
    ("harmonic", {"omega": Q(2)}),
    ("harmonic", {"omega": Q(7, 3)}),
    ("morse", {"alpha": Q(1), "A": Q(3), "B": Q(1)}),
    ("morse", {"alpha": Q(2, 3), "A": Q(5, 2), "B": Q(2)}),
    ("poschl-teller", {"alpha": Q(1), "A": Q(3), "B": Q(1)}),
    ("poschl-teller", {"alpha": Q(3, 2), "A": Q(4), "B": Q(3, 4)}),
    ("scarf-ii", {"alpha": Q(1), "A": Q(2), "B": Q(1)}),
    ("scarf-ii", {"alpha": Q(2), "A": Q(7, 2), "B": Q(-1, 3)}),
    ("coulomb", {"e2": Q(2), "l": 0}),
    ("coulomb", {"e2": Q(3, 2), "l": 2}),
])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_es_operator_data_round_trip(name, params, n):
    entry = make_entry(name, params, n=n)
    b4, b3, b2 = expected_es(name, params, n)
    bp = b_polynomials(entry.algebra)
    assert bp.b4 == b4
    assert bp.b3 == b3
    assert bp.b2(entry.algebra.d_or_zero) == b2


def expected_qes(name, p, s, n):
    if name.startswith("periodic"):
        al, be = p["alpha"], p["beta"]
        b4 = poly(be * be, 0, -be * be)
        if name == "periodic-v1":
            return (b4, poly(al + s * be * be, -2 * be * be, -al),
                    poly(Q(n * (n + 2)) * be * be / 4, n * al))
        if name == "periodic-v2":
            return (b4, poly(-al + s * be * be, -2 * be * be, al),
                    poly(Q(n * (n + 2)) * be * be / 4, -n * al))
        if name == "periodic-v3":
            return (b4, poly(-s * al, -3 * be * be, s * al),
                    poly(Q(n * (n + 4)) * be * be / 4, -s * n * al))
        if name == "periodic-v4":
            return (b4, poly(-s * al, -be * be, s * al),
                    poly(Q(n * n) * be * be / 4, -s * n * al))
    ga, eta = p["gamma"], p["eta"]
    g2 = ga * ga
    b4 = poly(-4 * g2, 0, 4 * g2)
    if name == "hyperbolic-v1":
        return (b4, poly(2 * g2 * (2 * s - eta), 8 * g2, 2 * g2 * eta),
                poly(-n * (n + 2) * g2, -2 * n * g2 * eta))
    if name == "hyperbolic-v2":
        return (b4, poly(2 * g2 * (eta + 2 * s), 8 * g2, -2 * g2 * eta),
                poly(-n * (n + 2) * g2, 2 * n * g2 * eta))
    if name == "hyperbolic-v3":
        # s is the wavefunction-exponent sign; the published upper row
        # corresponds to s = -1
        return (b4, poly(-s * 2 * g2 * eta, 4 * g2, s * 2 * g2 * eta),
                poly(-n * n * g2, -s * 2 * n * g2 * eta))
    if name == "hyperbolic-v4":
        return (b4, poly(-s * 2 * g2 * eta, 12 * g2, s * 2 * g2 * eta),
                poly(-n * (n + 4) * g2, -s * 2 * n * g2 * eta))
    raise KeyError(name)


@pytest.mark.parametrize("name,params,signs", [
    ("periodic-v1", {"alpha": Q(1), "beta": Q(1), "a": Q(0)}, ("+", "-")),
    ("periodic-v2", {"alpha": Q(3, 2), "beta": Q(2), "a": Q(1)}, ("+", "-")),
    ("periodic-v3", {"alpha": Q(2), "beta": Q(1), "a": Q(0)}, ("+", "-")),
    ("periodic-v4", {"alpha": Q(1, 2), "beta": Q(1), "a": Q(0)}, ("+", "-")),
    ("hyperbolic-v1", {"gamma": Q(1), "eta": Q(-1), "a": Q(0)}, ("+", "-")),
    ("hyperbolic-v2", {"gamma": Q(2), "eta": Q(3, 2), "a": Q(0)}, ("+", "-")),
    ("hyperbolic-v3", {"gamma": Q(1), "eta": Q(2), "a": Q(0)}, ("-",)),
    ("hyperbolic-v3", {"gamma": Q(1), "eta": Q(-2), "a": Q(0)}, ("+",)),
    ("hyperbolic-v4", {"gamma": Q(1), "eta": Q(1), "a": Q(0)}, ("-",)),
])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_qes_operator_data_round_trip(name, params, signs, n):
    for sgn in signs:
        s = 1 if sgn == "+" else -1
        entry = make_entry(name, params, sign=sgn, n=n)
        b4, b3, b2_base = expected_qes(name, params, s, n)
        bp = b_polynomials(entry.algebra)
        assert bp.b4 == b4
        assert bp.b3 == b3
        assert bp.b2_base == b2_base


def test_make_entry_harmonic_shift_value():
    # d is free; level 3's shift is the exact top diagonal entry
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    assert entry.algebra.d is None
    assert fraction_matrix(hamiltonian_matrix(entry.algebra))[3][3] == Q(3)
    assert entry.level(3).d == 3.0


def test_make_entry_periodic_v1_example():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=1)
    bp = entry.bp
    assert bp.b3 == poly(2, -2, -1)            # -xi^2 - 2 xi + 2
    assert bp.b2_base == poly(Q(3, 4), 1)      # xi + 3/4


def test_make_entry_hyperbolic_v1_example():
    entry = make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0},
                       sign="+", n=0)
    assert entry.bp.b4 == poly(-4, 0, 4)
    assert entry.bp.b3 == poly(6, 8, -2)       # -2 xi^2 + 8 xi + 6


# ------------------------------------------------------------------ spectra

def test_closed_form_energies():
    morse = make_entry("morse", {"alpha": 1, "A": 3, "B": 1}, n=2)
    assert morse.closed_form_energy(1) == pytest.approx(-4.0)
    with pytest.raises(NoBoundStateError):
        morse.closed_form_energy(3)    # j < A/alpha
    coulomb = make_entry("coulomb", {"e2": 2, "l": 0}, n=0)
    assert coulomb.closed_form_energy(0) == pytest.approx(-1.0)
    assert coulomb.closed_form_energy(2) == pytest.approx(-1.0 / 9.0)
    pt_marginal = make_entry("poschl-teller", {"alpha": 1, "A": 2, "B": 2},
                             n=0)
    with pytest.raises(NoBoundStateError):
        pt_marginal.closed_form_energy(0)   # A = B: threshold, no bound state


def test_qes_energy_indexing():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=1)
    assert entry.closed_form_energy(0) == pytest.approx(3 / 8 - math.sqrt(3))
    assert entry.closed_form_energy(1) == pytest.approx(3 / 8 + math.sqrt(3))
    with pytest.raises(NoBoundStateError):
        entry.closed_form_energy(2)


# ------------------------------------------------------------ wavefunctions

def test_harmonic_wavefunctions():
    entry = make_entry("harmonic", {"omega": 2}, n=1)
    psi0 = entry.closed_form_wavefunction(0)
    assert psi0(0.0) == pytest.approx(1.0)
    psi1 = entry.closed_form_wavefunction(1)
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(psi1(xs), xs * np.exp(-xs ** 2 / 2), rtol=1e-12)


def test_scarf_wavefunction_is_real():
    entry = make_entry("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, n=1)
    psi0 = entry.closed_form_wavefunction(0)
    assert psi0(0.0) == pytest.approx(1.0)
    psi1 = entry.closed_form_wavefunction(1)
    vals = psi1(np.linspace(-3, 3, 11))
    assert np.all(np.isreal(vals))


@pytest.mark.parametrize("name,params,sign,n,window", [
    ("harmonic", {"omega": 2}, None, 3, (-6, 6)),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2, (-2, 12)),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0, (0.05, 8)),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1, (-8, 8)),
    ("coulomb", {"e2": 2, "l": 0}, None, 2, (0.1, 60)),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "-", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "+", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "+", 0,
     (0.02, 2 * math.pi - 0.02)),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "-", 1, (-2.5, 2.5)),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "+", 1, (-2.5, 2.5)),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1, (-2.5, 2.5)),
    ("hyperbolic-v4", {"gamma": 1, "eta": 2, "a": 0}, "-", 1, (-2.5, 2.5)),
    # the other sign branch of every quasi-solvable family, so each
    # (sigma, s) cell of the catalog rule is checked
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "-", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "+", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "-", 1,
     (0.02, 2 * math.pi - 0.02)),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "-", 0,
     (0.02, 2 * math.pi - 0.02)),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1, (-2.5, 2.5)),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1, (-2.5, 2.5)),
    ("hyperbolic-v3", {"gamma": 1, "eta": -2, "a": 0}, "+", 1, (-2.5, 2.5)),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1, (-2.5, 2.5)),
])
def test_closed_form_states_satisfy_schroedinger(name, params, sign, n,
                                                 window):
    entry = make_entry(name, params, sign=sign, n=n)
    grid = Grid(window[0], window[1], 4001)
    tops = (range(n + 1) if entry.kind != "es"
            else range(min(n, entry.max_j if entry.max_j is not None else n)
                       + 1))
    for j in tops:
        psi = entry.closed_form_wavefunction(j)
        e = entry.closed_form_energy(j)
        assert residual(entry.potential, psi, e, grid) <= 1e-5


def test_es_node_counts():
    cases = [
        ("harmonic", {"omega": 2}, (-8, 8), 3),
        ("morse", {"alpha": 1, "A": 3, "B": 1}, (-2.5, 14), 2),
        ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, (0.02, 10), 0),
        ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, (-10, 10), 1),
        ("coulomb", {"e2": 2, "l": 0}, (0.05, 80), 3),
    ]
    for name, params, window, top in cases:
        entry = make_entry(name, params, n=0)
        xs = np.linspace(window[0], window[1], 4001)
        for j in range(top + 1):
            vals = entry.closed_form_wavefunction(j)(xs)
            assert count_nodes(vals) == j, (name, j)


def test_spectral_states_match_assembled_wavefunctions():
    cases = [
        make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
        make_entry("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "-", 2),
        make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1),
        make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1),
    ]
    for entry in cases:
        if entry.kind == "qes-periodic":
            xs = np.linspace(0.4, math.pi - 0.4, 25)
        else:
            xs = np.linspace(0.3, 1.8, 25)
        # the gauge by quadrature, independent of build_gauge, as the
        # factor of exp(0)
        quad_g = quadrature_gauge(entry.bp, entry.mapping, entry.gauge_x0)
        gauge = GaugeFactor(lambda x: GaugeSamples(np.zeros(len(x)),
                                                   quad_g(x)))
        for j in range(entry.n + 1):
            lv = entry.spectral().levels[j]
            numeric = WaveFunction(gauge, lv.b, entry.mapping)(xs)
            closed = entry.closed_form_wavefunction(j)(xs)
            scale = numeric[0] / closed[0]
            assert np.max(np.abs(numeric - scale * closed)) <= \
                1e-10 * np.max(np.abs(numeric))


# ------------------------------------------------------------- potentials

_MAGNITUDE = st.fractions(min_value=Q(1, 4), max_value=4, max_denominator=8)
_REAL = st.fractions(min_value=-4, max_value=4, max_denominator=8)


# Fixed sample windows per family: (x_min, x_max, points), relative to the
# shift a for the quasi-solvable families.
_FD_WINDOWS = {
    "morse": (-2.8, 22.0, 4001),
    "poschl-teller": (1e-5, 12.0, 2401),
    "scarf-ii": (-16.0, 16.0, 3201),
    "coulomb": (1e-5, 200.0, 1601),
}


def _oracle_nodes(entry):
    """Refined FD grid nodes on a fixed window per family (no Dirichlet
    wall, one period of a band problem), and the plot range.  The grid is
    uniform in u = 2 sqrt(x) for a two-sqrt map, else uniform in x."""
    if entry.name == "harmonic":
        half = max(10.0, math.sqrt(128.0 / float(entry.params["omega"])))
        window = (-half, half, 2001)
    elif entry.kind == "es":
        window = _FD_WINDOWS[entry.name]
    else:
        a = float(entry.params["a"])
        window = ((a, a + entry.period, 801) if entry.period is not None
                  else (a - 8.0, a + 8.0, 3201))
    stretch = (SQRT_STRETCH if entry.mapping.transform.kind == "two-sqrt"
               else None)
    nodes = Grid(*window, stretch).refined().nodes
    nodes = nodes[:-1] if entry.period is not None else nodes[1:-1]
    return np.concatenate([nodes, np.linspace(*entry.plot_range, 401)])


def _draw_params(data, family, magnitude=_MAGNITUDE) -> dict:
    """Parameters for one list_families() item; the predicates may still
    reject them."""
    params = {}
    for key, doc in family["params"].items():
        if key == "l":
            params[key] = data.draw(st.integers(0, 3))
        elif doc == "real":
            params[key] = data.draw(_REAL)
        else:   # a positive, nonzero or sign-restricted parameter
            params[key] = data.draw(magnitude) * data.draw(
                st.sampled_from([1, -1]))
    return params


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_potential_matches_hand_written_formula(data):
    family = data.draw(st.sampled_from(list_families()))
    params = _draw_params(data, family)
    sign = (data.draw(st.sampled_from(["+", "-"]))
            if family["sign_branches"] else None)
    try:
        entry = make_entry(family["name"], params, sign=sign,
                           n=data.draw(st.integers(0, 6)))
    except InvalidParameterError:
        assume(False)
    xs = _oracle_nodes(entry)
    got = np.asarray(entry.potential(xs), float)
    want = np.asarray(hand_written_potential(entry)(xs), float)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


# ----------------------------------------------------------- sector counts

def test_sector_counts():
    assert make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                      "+", 1).sector_count() == 4
    assert make_entry("periodic-v4", {"alpha": 1, "beta": 1, "a": 0},
                      "+", 2).sector_count() == 5
    assert make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0},
                      "-", 0).sector_count() == 1
    assert make_entry("hyperbolic-v4", {"gamma": 1, "eta": 2, "a": 0},
                      "-", 1).sector_count() == 5


# -------------------------------------------------------------- validation

def test_parameter_validation_messages():
    with pytest.raises(InvalidParameterError, match="omega"):
        make_entry("harmonic", {"omega": -1})
    with pytest.raises(InvalidParameterError, match="B must be positive"):
        make_entry("morse", {"alpha": 1, "A": 3, "B": -1})
    with pytest.raises(InvalidParameterError, match="missing"):
        make_entry("morse", {"alpha": 1})
    with pytest.raises(InvalidParameterError, match="sign"):
        make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0})
    with pytest.raises(InvalidParameterError, match="eta"):
        make_entry("hyperbolic-v1", {"gamma": 1, "eta": 1, "a": 0}, sign="+")
    with pytest.raises(InvalidParameterError, match="eta"):
        make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, sign="+")
    with pytest.raises(InvalidParameterError, match="unknown family"):
        make_entry("rosen-morse", {"alpha": 1})
    with pytest.raises(InvalidParameterError, match="integer"):
        make_entry("coulomb", {"e2": 2, "l": 0}, n=-1)
    with pytest.raises(InvalidParameterError, match="integer"):
        make_entry("coulomb", {"e2": 2, "l": 1.5})
    with pytest.raises(InvalidParameterError, match="integer"):
        make_entry("coulomb", {"e2": 2, "l": True})
    with pytest.raises(InvalidParameterError, match="integer"):
        make_entry("coulomb", {"e2": 2, "l": 0}, n=True)
    with pytest.raises(InvalidParameterError, match="integer"):
        make_entry("coulomb", {"e2": 2, "l": 0}, n=1.5)
    for bad in (True, None, "abc", float("nan")):
        with pytest.raises(InvalidParameterError, match="omega"):
            make_entry("harmonic", {"omega": bad})


def test_list_families_shape():
    doc = list_families()
    assert len(doc) == 13
    names = {item["name"] for item in doc}
    assert "periodic-v1" in names and "scarf-ii" in names
    for item in doc:
        assert "params" in item and "domain" in item
        if item["class"] == "exactly-solvable":
            assert item["sign_branches"] == []
        else:
            assert item["sign_branches"] == ["+", "-"]
            assert "sector_count" in item


def test_periodic_potential_periodicity():
    entry = make_entry("periodic-v2", {"alpha": 1, "beta": 2, "a": 0.3},
                       sign="+", n=1)
    xs = np.linspace(-2, 2, 11)
    assert np.allclose(entry.potential(xs),
                       entry.potential(xs + entry.period), atol=1e-12)


# ------------------------------------------- exactly solvable sector chain

def _es_offset(name, p, n):
    """The exact offset of an ES family's data at n: E = offset + d."""
    if name == "harmonic":
        return (n + 1) * p["omega"] / 2
    if name == "poschl-teller":
        return -(p["A"] - p["B"] - n * p["alpha"]) ** 2
    if name == "coulomb":
        kappa = Q(p["e2"]) / (2 * (n + p["l"] + 1))
        return -kappa * (kappa + n)
    return -(p["A"] - n * p["alpha"] / 2) ** 2     # Morse, Scarf II


def _node_grid(entry, energy):
    """8001 points over the classically allowed region {V < E}, found on a
    wide grid and padded on each side by its own width."""
    if entry.domain[0] == 0.0:
        wide = np.geomspace(1e-3, 1e4, 20001)
    else:
        wide = np.linspace(-50.0, 50.0, 20001)
    with np.errstate(over="ignore", invalid="ignore"):
        allowed = wide[np.asarray(entry.potential(wide)) < energy]
    lo, hi = allowed.min(), allowed.max()
    return np.linspace(max(2 * lo - hi, wide[0]), 2 * hi - lo, 8001)


_ES_FAMILIES = [f for f in list_families()
                if f["class"] == "exactly-solvable"]
# below alpha = 1/2 the monomial sum of psi_6 cancels to about 2e-12 of its
# column (Morse and Scarf II at alpha = 1/4)
_ES_MAGNITUDE = st.fractions(min_value=Q(1, 2), max_value=4,
                             max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_es_levels_come_from_their_sectors(data):
    """Level j <= min(max_j, 6) of every ES family over its predicates, at
    n = 0 and at n = top: the sector at n = j is upper triangular, its top
    diagonal entry plus
    the exact offset is the closed-form E_j (Coulomb: that entry is the
    data's d; the others: every diagonal entry is a lower level), and
    psi_j has j nodes and equals the closed form up to one scale factor
    on the sample grid."""
    family = data.draw(st.sampled_from(_ES_FAMILIES))
    name = family["name"]
    try:
        entry = make_entry(name, _draw_params(data, family, _ES_MAGNITUDE))
    except InvalidParameterError:
        assume(False)
    top = 6 if entry.max_j is None else min(entry.max_j, 6)
    assume(top >= 0)
    p = entry.params
    # n = top takes every level from the entry's own sector, n = 0 takes
    # the others from the sectors at n = j
    entry = make_entry(name, p, n=data.draw(st.sampled_from([0, top])))
    for j in range(top + 1):
        sector = make_entry(name, p, n=j)
        m = fraction_matrix(hamiltonian_matrix(sector.algebra.with_free_d()))
        assert all(m[i][r] == 0 for r in range(j) for i in range(r + 1, j + 1))
        offset = _es_offset(name, p, j)
        assert sector.energy_offset == float(offset)
        assert m[j][j] + offset == closed_form_energy(name, p, j)
        if name == "coulomb":
            assert m[j][j] == sector.algebra.d
        else:
            assert all(m[r][r] + offset == closed_form_energy(name, p, r)
                       for r in range(j))
        exact = float(closed_form_energy(name, p, j))
        assert abs(entry.closed_form_energy(j) - exact) <= \
            1e-12 * max(1.0, abs(exact))

        psi = entry.closed_form_wavefunction(j)
        assert count_nodes(psi(_node_grid(entry, exact))) == j
        x = np.linspace(*entry.plot_range, 401)
        got, want = psi(x), closed_form_psi(name, p, j)(x)
        k = int(np.argmax(np.abs(want)))
        assert np.max(np.abs(got - got[k] / want[k] * want)) <= \
            1e-12 * np.max(np.abs(got))
