"""Optimal power allocation over two identical good/bad Markov channels.

The controller splits a power budget between two hidden two-state channels
each slot (both, one, or neither) and tracks a per-channel belief of being
in the good state. This package computes the discounted optimal value on a
belief lattice, extracts and structurally checks the optimal policy, exports
the discretized problem as an LP text model for independent verification,
and validates values by closed-loop Monte Carlo simulation.
"""

from .dynamics import (
    ACTION_PRIORITY,
    Action,
    Belief,
    ChannelParams,
    Discount,
    EconParams,
    ParameterError,
    immediate_reward,
    propagate,
)
from .lpmodel import build_all_kernels, export_lp
from .policy import (
    DiagonalStructure,
    EdgeThresholds,
    PolicyField,
    StructureReport,
    analyze_structure,
    check_connectivity,
    check_contiguity,
    check_symmetry,
    delta_funcs,
    diagonal_structure,
    edge_thresholds,
    extract_policy,
    region_map,
)
from .simulate import (
    BASELINES,
    SimConfig,
    SimSummary,
    run_episodes,
)
from .solver import (
    BeliefGrid,
    NonConvergence,
    SolveResult,
    SolverConfig,
    ValueField,
    bellman_backup,
    interpolate,
    load_value_field,
    save_value_field,
    solve,
)

__version__ = "0.1.0"
