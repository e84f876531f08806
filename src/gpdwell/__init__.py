"""Self-consistent finite-difference toolkit for a 1D condensate in a
symmetric quartic double-well trap: spectra, critical parameters, Wigner
negativity, WKB transmission, eigenstate overlaps, and separatrix dynamics.
"""

from .critical import (
    CriticalResult,
    NoSignChange,
    QuadraticFit,
    curvature_at_origin,
    find_critical_a,
    fit_quadratic,
)
from .dynamics import GrowthFit, coherent_state, fotoc, growth_rate, propagate
from .eigensolver import Eigenpair, lowest_eigenpairs
from .grid import Grid, TrapConfig, integrate, make_grid, potential, quartic_rescale
from .hamiltonian import (
    TridiagonalOperator,
    assemble,
    assemble_block,
    block_vector,
    kinetic_operator,
    unfold,
)
from .observables import energy, overlap_matrix
from .scf import (
    DomainTooSmall,
    MaxIterationsExceeded,
    ScfConfig,
    ScfResult,
    StationaryState,
    solve_spectrum,
    solve_state,
)
from .semiclassics import (
    ClassicalTrajectory,
    classical_trajectory,
    lyapunov_exponent,
    transmission,
)
from .wigner import WignerField, negativity, wigner_transform

__version__ = "0.1.0"
