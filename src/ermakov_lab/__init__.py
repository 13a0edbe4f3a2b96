"""Numerical laboratory for invariants of a continuously measured oscillator."""

from .params import (
    COEFF_CONSISTENT,
    COEFF_PAPER_LITERAL,
    TAU_INFINITE,
    DriveSpec,
    PhysParams,
)
from .ermakov import (
    ALPHA_MIN,
    ErmakovState,
    Trajectory,
    alpha_from_delta,
    delta_from_alpha,
    els_invariant_rate,
    integrate,
    lewis_invariant,
    measurement_rhs,
)
from .madelung import (
    Grid,
    MadelungFields,
    Observables,
    WavePacket,
    evolve,
    gaussian_packet,
    madelung_decompose,
    observables,
    quantum_force_linearity,
)
from .identities import (
    AnsatzSlice,
    check_coefficient_expansion,
    check_decomposition_integrals,
    check_integrating_factor,
    check_k0_gaussian,
    check_velocity_ansatz,
)

__version__ = "0.1.0"
