"""Nonsingular isospectral partner potentials from excited-state factorization
of position-dependent-mass Schrodinger operators, with an independent
Sturm-Liouville eigensolver for verification."""

from .errors import (
    ConfigurationError,
    DegenerateStateError,
    DomainError,
    InconsistentInputError,
    NonNormalizableError,
    SolverError,
)
from .factor import (
    BernoulliTerms,
    DeformationFunction,
    FactorizationResult,
    Superpotential,
    auxiliary_f,
    bernoulli_f,
    bernoulli_terms,
    deformed_partner,
    factorize,
    map_eigenstate,
    partner_minus,
    partner_plus,
    superpotential,
    zero_mode,
)
from .grids import Grid, SampledFunction, cumulative_integral, definite_integral, derivative
from .models import (
    Box,
    Ex1,
    Ex2,
    HarmonicOscillator,
    PdmModel,
    catalog,
    seed_solution,
)
from .spectra import (
    SpectrumReport,
    SturmLiouvilleProblem,
    count_nodes,
    discretize,
    lowest_eigenpairs,
    solve_spectrum,
)
from .verify import (
    IsospectralityReport,
    ScanReport,
    check_isospectral,
    riccati_residual,
    scan_lambda,
)

__version__ = "0.1.0"
