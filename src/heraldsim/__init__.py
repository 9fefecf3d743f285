"""Herald-certified trapped-ion gate simulation.

Multi-level ion registers with an optional motional mode, exact transfer
pulses under shared pulse-area errors, dissipative clean-out channels that
herald imperfect transfers, and the certified protocols built from them.
"""

from .dissipation import (
    CleanoutChannel,
    HeraldRecord,
    aux_cleanout,
    level_cleanout,
    qubit_cleanout,
)
from .experiments import (
    CertifiedVsBare,
    EnsembleStatistics,
    ExperimentSpec,
    InputSpec,
    compare_certified_vs_bare,
    herald_probability_analytic,
    prepare_input,
    run_ensemble,
    sweep,
)
from .noise import AmplitudeErrorModel, rms, sample_errors, trajectory_rng
from .protocols import (
    Branch,
    CrosstalkProfile,
    GateSpec,
    LeakageError,
    ProtocolOutcome,
    bare_single_qubit,
    certified_addressed_gate,
    certified_cz,
    certified_single_qubit,
    cleanout_branches,
    cleanout_sample,
    cz_space,
    flag_probability,
    ideal_addressed_output,
    ideal_cz,
    ideal_cz_output,
    ideal_single_qubit,
    ideal_single_qubit_output,
    no_flag_branch,
)
from .pulses import (
    SidebandPulse,
    ToneSet,
    TransferPulse,
    evolve_numeric,
    gate_phase_shifts,
    hamiltonian_matrix,
    sideband_unitary,
    transfer_unitary,
)
from .statespace import (
    AUX_MANIFOLD,
    BlochAxis,
    IonLevel,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    apply_unitary,
    basis_state,
    fidelity_up_to_global_phase,
    fock_population,
    make_state,
    manifold_population,
    overlap,
    plus_minus_n_states,
)

__version__ = "0.1.0"
