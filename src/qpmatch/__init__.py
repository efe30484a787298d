"""Exact simulation and circuit synthesis for Grover-style closest pattern matching."""

__version__ = "0.1.0"

from .errors import DomainError, ResourceError
from .text import (
    ClassicalMatchResult,
    OracleIndex,
    Pattern,
    Text,
    build_index,
    closest_match_classical,
    f_sigma,
    hamming_score,
    recode_kgrams,
)
from .simulation import (
    apply_diffusion,
    apply_query_phase,
    embed_full,
    full_apply_diffusion,
    full_apply_query,
    init_state,
    measure_first_register,
)
from .search import (
    MatchDistribution,
    RunConfig,
    RunOutcome,
    SuccessEstimate,
    draw_schedule,
    estimate_distribution,
    grover_step,
    max_iterations,
    run_once,
    success_probability,
    wilson_interval,
)
from .circuits import (
    Circuit,
    Gate,
    GateCountReport,
    emit_circuit,
    expand_mcx,
    gate_count,
    gray_code,
    init_state_fidelity,
    init_state_target,
    lift_boolean,
    oracle_gate_count,
    parse_circuit,
    permutation_action,
    permutation_to_transpositions,
    simulate_statevector,
    simulate_unitary,
    synth_boolean_oracle,
    synth_init_state_circuit,
    synth_permutation,
    synth_phase_oracle,
    synth_transposition,
)
