"""Simulator toolkit for parity-architecture Ising machines built from
Josephson parametric oscillators: problem mapping, tile energy models
(classical and quantum), circuit tuning relations, and annealing dynamics.
"""

from .anneal import (
    AnnealSchedule,
    CouplingProgram,
    OscillatorState,
    StateHistogram,
    TrialResult,
    alternating_field_program,
    classify_state,
    coupling_from_phase,
    dft_phase,
    effective_tile_couplings,
    even_parity_program,
    johnson_noise_amplitude,
    readout_bit,
    run_trials,
    simulate_trial,
    wall_clock_seconds,
)
from .circuit import (
    FluxSweepPoint,
    JunctionParams,
    ResonatorParams,
    SquidParams,
    K_B,
    PHI0,
    calibrate_resonator,
    flux_sweep,
    jj_inductance,
    pump_frequency,
    resonance_frequency,
    rsj_iv_curve,
    squid_inductance,
)
from .errors import (
    AmbiguousPhaseError,
    CalibrationError,
    CapacityError,
    DecodeError,
    DivergenceError,
    EigensolverError,
    InsufficientDataError,
    IntegrationBlowupError,
    ParseError,
    UnsupportedProblemError,
)
from .lhz import (
    LhzLayout,
    LhzProblem,
    build_layout,
    constraint_count,
    decode_readout,
    encode,
    lhz_energy,
    map_couplings,
    penalty_too_weak,
    physical_count,
    tile_products,
)
from .quantum import (
    NoiseSpec,
    StateDistribution,
    build_hamiltonian,
    closed_form_ground_energy,
    default_field_sweep,
    ground_states,
    logical_distribution,
    spectral_gap,
    sweep_distribution,
)
from .spins import (
    DEGENERACY_TOL,
    ENUMERATION_LIMIT,
    IsingProblem,
    code_labels,
    enumerate_ground_states,
    ising_energy,
    load_ising_problem,
)
from .tile import (
    ParityCheck,
    TileConfig,
    TileParams,
    ground_set,
    lhz_parity_valid,
    penalty_negative_in_ground,
    tile_energies,
    tile_energy,
    uniform_tile_params,
)

__version__ = "0.1.0"
