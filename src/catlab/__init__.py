"""catlab: collective-spin cat states in two-mode bosonic interferometers.

Prepares coherent and thermal states of N bosons in two modes, evolves them
under the twist-and-turn Hamiltonian to create Schrodinger-cat counting
distributions, and quantifies how macroscopic (extensive difference) and how
genuinely quantum (Fisher-information indefiniteness) the result is.
"""

# bound as _os so that the dir()-built __all__ does not export it
import os as _os

# an idle OpenBLAS thread sleeps after 2^4 cycles instead of spinning for 2^28.  spin pins
# BLAS to one thread (spin.BLAS_PINNED), but the helper thread OpenBLAS starts when it
# loads still spins once without this, about 0.07 s of CPU per process.  OpenBLAS reads
# the variable once, when numpy loads it, so it is set before any import of numpy
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

from .spin import (
    SpinAxis,
    SpinSpace,
    NumericalInvariantError,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    apply_j,
    coherent_state,
    jx_eigensystem,
    rotation,
    thermal_state,
)
from .dynamics import (
    Propagator,
    StateLabel,
    TwistTurnParams,
    build_hamiltonian,
    evolve,
    prepare_and_evolve,
    t_pi,
)
from .classical import (
    FixedPoint,
    MeanFieldParams,
    PhasePoint,
    SeparatrixAbsentError,
    Stability,
    TrajectoryClass,
    classical_energy,
    classify_batch,
    fixed_points,
    integrate_trajectory,
    phase_portrait,
    separatrix,
)
from .metrology import (
    AxisMap,
    CatSplit,
    JzDistribution,
    MetrologyReport,
    ReadoutSpec,
    cat_split,
    cfi_commutator,
    cfi_finite_difference,
    jz_distribution,
    metrology_report,
    n_eff,
    protocol_distribution,
    qfi,
    qfi_axis_map,
    statistical_uncertainty,
)
from .wigner import WignerGrid, ridge_circular_spread, wigner
from .catqubit import (
    CatQubitModel,
    SyntheticCat,
    analytic_qfi,
    analytic_rq,
    eta_critical,
    lg_violation,
    make_synthetic_cat,
    reduced_density,
    reduced_extdiff,
)
from .config import ConfigError, RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
