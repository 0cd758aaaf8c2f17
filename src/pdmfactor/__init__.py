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
    DeformationFunction,
    FactorizationResult,
    ScanReport,
    Superpotential,
    auxiliary_f,
    bernoulli_f,
    deformed_partner,
    factorize,
    map_eigenstate,
    partner_minus,
    partner_plus,
    scan_lambda,
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
from .verify import IsospectralityReport, check_isospectral, riccati_residual

__version__ = "0.1.0"
