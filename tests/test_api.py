"""The public API, pinned: a name joins or leaves it only with an edit here."""

import types

import pytest

import gepower
from gepower import dynamics, lpmodel, policy, simulate, solver

PACKAGE = {
    "ACTION_PRIORITY", "Action", "BASELINES", "Belief", "BeliefGrid", "ChannelParams",
    "DiagonalStructure", "Discount", "EconParams", "EdgeThresholds", "NonConvergence",
    "ParameterError", "PolicyField", "SimConfig", "SimSummary", "SolveResult",
    "SolverConfig", "StructureReport", "ValueField", "analyze_structure", "bellman_backup",
    "build_all_kernels", "check_connectivity", "check_contiguity", "check_symmetry",
    "delta_funcs", "diagonal_structure", "edge_thresholds", "export_lp", "extract_policy",
    "immediate_reward", "interpolate", "load_value_field", "propagate",
    "region_map", "run_episodes", "save_value_field", "solve",
}

MODULES = {
    dynamics: {
        "ParameterError", "ChannelParams", "EconParams", "Discount", "Belief", "Action",
        "ACTION_PRIORITY", "propagate", "propagate_array", "immediate_reward",
        "expected_rewards",
    },
    solver: {
        "BeliefGrid", "ValueField", "SolverConfig", "SolveResult", "NonConvergence",
        "ValueFileError", "interpolate", "q_probe", "action_value_grids", "bellman_backup",
        "solve", "save_value_field", "load_value_field",
    },
    lpmodel: {
        "Kernel", "build_all_kernels", "export_lp", "variable_name",
    },
    policy: {
        "PolicyField", "ContiguityViolation", "ConnectivityReport",
        "EdgeThresholds", "DiagonalStructure", "StructureReport", "ANCHOR_CORNERS",
        "extract_policy", "region_map", "check_contiguity", "check_symmetry",
        "check_connectivity", "bet_dominance_violations", "delta_funcs", "edge_thresholds",
        "diagonal_structure", "analyze_structure", "report_has_violations",
        "save_structure_report", "export_policy_csv", "export_policy_ppm",
    },
    simulate: {
        "BASELINES", "SimConfig", "TraceBatch", "SimSummary", "run_episodes",
        "summary_to_dict", "save_summary", "write_traces_csv",
    },
}


def test_package_names():
    public = {
        name for name, value in vars(gepower).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE


@pytest.mark.parametrize("module", list(MODULES), ids=lambda m: m.__name__)
def test_module_all(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULES[module]
    for name in module.__all__:
        assert hasattr(module, name), name

