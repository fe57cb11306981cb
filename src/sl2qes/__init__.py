"""Solvable and quasi-solvable 1D quantum potentials from sl(2) operator data.

The package builds potentials whose low-lying spectrum is available in
closed algebraic form, computes that algebraic sector exactly, and checks
every prediction against an independent finite-difference eigensolver.
"""

from .algebra import (
    AlgebraCoefficients,
    BPolynomials,
    Generator,
    Polynomial,
    apply_generator,
    apply_operator,
    b_polynomials,
    commutator,
    hamiltonian_matrix,
    hamiltonian_matrix_from_b,
)
from .catalog import (
    CatalogEntry,
    list_families,
    make_entry,
)
from .errors import (
    BranchError,
    GridError,
    InvalidParameterError,
    NoBoundStateError,
    RepresentationError,
    SingularPointError,
    Sl2QesError,
)
from .fdsolve import (
    BandEdge,
    FdSpectrum,
    Grid,
    band_edges,
    count_nodes,
    fd_eigensolve,
)
from .mapping import (
    Branch,
    GaugeFactor,
    GaugeSamples,
    Mapping,
    PotentialModel,
    UTransform,
    WaveFunction,
    build_gauge,
    build_mapping,
    half_line_sqrt,
    identity_shift,
    potential_from_operator,
)
from .spectral import (
    Level,
    NonRealSpectrumWarning,
    SpectralResult,
    compose_energies,
    sector_ode_residual,
    solve_algebraic_sector,
)

__version__ = "0.1.0"
