"""Self-consistent finite-difference toolkit for a 1D condensate in a
symmetric quartic double-well trap: spectra, critical parameters, Wigner
negativity, WKB transmission, eigenstate overlaps, and separatrix dynamics.
"""

from .critical import (
    CriticalResult,
    NoSignChange,
    QuadraticFit,
    find_critical_a,
    fit_quadratic,
)
from .dynamics import GrowthFit, WavePacket, coherent_state, fotoc, growth_rate, propagate
from .eigensolver import Eigenpair, lowest_eigenpairs, refine_eigenpair
from .grid import Grid, TrapConfig, integrate, make_grid, potential, quartic_rescale
from .hamiltonian import (
    TridiagonalOperator,
    assemble,
    assemble_block,
    fold,
    kinetic_operator,
    second_derivative_at,
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
    TurningPair,
    classical_trajectory,
    effective_potential,
    lyapunov_exponent,
    transmission,
    turning_points,
)
from .wigner import WignerField, negativity, wigner_transform

__version__ = "0.1.0"
