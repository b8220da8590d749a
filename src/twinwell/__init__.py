"""Two-well, two-component BEC correlation dynamics.

Exact Kerr-evolution moment engine and truncated-Wigner stochastic
engine, feeding shared spin-squeezing / entanglement / EPR-steering
criteria, with a sweep CLI on top.
"""

__version__ = "0.2.11"

from .config import (
    InitialState,
    LossRates,
    PhysicalCouplings,
    SimConfig,
    load_config,
    preset_couplings,
    validate_config,
)
from .criteria import (
    CriteriaResult,
    GainPair,
    JointSpinMoments,
    duan_sum_spin,
    e_epr_product,
    e_product,
    evaluate_criteria,
    joint_moments,
    optimal_gains,
)
from .errors import (
    ConfigError,
    DegenerateReferenceError,
    DegenerateSweepError,
    DivergenceError,
    TruncationError,
)
from .kerr import fock_moment_table, moment_table
from .operators import NormalPoly, beam_splitter
from .spins import SpinMoments, optimal_angle, rotated_variance, spin_moments, squeezing
