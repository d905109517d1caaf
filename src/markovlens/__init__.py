"""markovlens: divisibility, CP-divisibility and information-backflow
diagnostics for quantum dynamical maps, including noninvertible ones."""

__version__ = "0.1.0"

from .operator_core import (
    SubspaceBasis,
    gram_schmidt_hermitian,
    hermitian_basis,
    hs_inner,
    hs_norm,
    psd_check,
    require_density,
    require_hermitian,
    trace_norm,
    traceless_hermitian_basis,
)
from .superop import (
    Superoperator,
    apply,
    compose,
    from_choi,
    identity_superop,
    induced_trace_norm_estimate,
    is_cp,
    is_cptp,
    is_hp,
    is_tp,
    kraus_from_choi,
    orthogonal_projector,
    superop_from_action,
    superop_from_kraus,
    tensor_with_identity,
    to_choi,
)
from .signals import (
    ScalarSignal,
    constant,
    cosine_clipped,
    exp_decay,
    inverse_gap,
    piecewise_linear,
    sinusoidal,
)
from .dynamics import (
    GKLSDecomposition,
    MapFamily,
    amplitude_damping_generator,
    canonical_gkls,
    damping_basis,
    generator_from_family,
    gkls_superop,
    integrate_generator,
    pauli_generator,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
    validate_dynamical_map,
)
from .divisibility import (
    DivisibilityStatus,
    DivisibilityVerdict,
    PropagatorResult,
    RankProfile,
    TimeGrid,
    VerdictTolerances,
    composite_propagator,
    cp_divisibility_verdict,
    image_basis,
    is_divisible,
    is_image_nonincreasing,
    kernel_basis,
    limit_projector,
    make_grid,
    propagator,
    rank_profile,
)
from .witnesses import (
    WitnessRecord,
    blp_sigma,
    enlarged_ancilla_witness,
    embed_delta,
    helstrom_witness,
    witness_scan,
)
from .cp_extension import (
    FeasibilityResult,
    FeasibilityStatus,
    InfeasibilityCertificate,
    SubspaceMapSpec,
    extend_cp,
    jencova_reduce,
    positively_generated_check,
    verify_extension,
    verify_infeasibility,
)
