"""The table-driven artifact writers against the per-point loops they
replaced (tests/loop_oracles.py): policy.csv, policy.ppm, value.json and
traces.csv must come out byte for byte the same."""

import csv
import hashlib

import numpy as np
import pytest
from loop_oracles import loop_policy_csv, loop_policy_ppm, loop_traces_csv, loop_value_field

from gepower import (
    Belief,
    BeliefGrid,
    ChannelParams,
    Discount,
    EconParams,
    SimConfig,
    SolverConfig,
    ValueField,
    extract_policy,
    run_episodes,
    solve,
)
from gepower.dynamics import ACTION_PRIORITY
from gepower.policy import export_policy_csv, export_policy_ppm
from gepower.simulate import EPISODE_BLOCK, write_traces_csv
from gepower.solver import _SPLIT, SolveResult, save_value_field

CH = ChannelParams(0.1, 0.9)
ECON_A = EconParams(3.0, 2.0, 1.2, 0.8)
DISC = Discount(0.9)
# 201 is above the solver's size rule, so its field comes from a coarse start.
SIZES = [2, 7, 22, 101, 201]


@pytest.fixture(scope="module", params=SIZES)
def solved(request):
    return solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, BeliefGrid(request.param))


def _same_bytes(tmp_path, write, oracle):
    write(tmp_path / "new")
    oracle(tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


# tie_tol=0.5 gives multi-action best sets and all four primaries at n >= 7.
@pytest.mark.parametrize("tie_tol", [None, 0.5])
class TestPolicyWriters:
    def test_csv_matches_loop(self, solved, tie_tol, tmp_path):
        policy = extract_policy(solved.field, CH, ECON_A, DISC, tie_tol)
        if tie_tol is not None and policy.grid.n >= 7:
            assert (policy.best.sum(axis=2) > 1).any()
            assert set(np.unique(policy.primary)) == set(range(len(ACTION_PRIORITY)))
        _same_bytes(
            tmp_path,
            lambda path: export_policy_csv(policy, path),
            lambda path: loop_policy_csv(policy, path),
        )

    def test_ppm_matches_loop(self, solved, tie_tol, tmp_path):
        policy = extract_policy(solved.field, CH, ECON_A, DISC, tie_tol)
        _same_bytes(
            tmp_path,
            lambda path: export_policy_ppm(policy, path),
            lambda path: loop_policy_ppm(policy, path),
        )


class TestPolicyCsvColumns:
    def test_rows_round_trip(self, solved, tmp_path):
        policy = extract_policy(solved.field, CH, ECON_A, DISC, 0.5)
        path = tmp_path / "policy.csv"
        export_policy_csv(policy, path)
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert rows[0] == ["i", "j", "p1", "p2", "primary", "best"]
        x = policy.grid.points
        names = [a.value for a in ACTION_PRIORITY]
        assert len(rows) == 1 + policy.grid.n ** 2
        for i, j, p1, p2, primary, best in rows[1:]:
            i, j = int(i), int(j)
            assert float(p1) == x[i] and float(p2) == x[j]
            assert [a in best.split("|") for a in names] == policy.best[i, j].tolist()
            assert primary == names[policy.primary[i, j]]


class TestValueWriter:
    def test_matches_loop(self, solved, tmp_path):
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, solved, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, solved, CH, ECON_A, DISC),
        )

    def test_matches_loop_on_awkward_floats(self, tmp_path):
        grid = BeliefGrid(7)
        values = np.linspace(-3.0, 40.0, 49).reshape(7, 7)
        values.flat[:6] = [-0.0, 0.0, 1e-05, 1e16, 0.1 + 0.2, -1.0 / 3.0]
        result = SolveResult(ValueField(grid, values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )
        assert '"values": [-0.0, 0.0, 1e-05, 1e+16, 0.30000000000000004, ' in (
            (tmp_path / "new").read_text()
        )

    def test_matches_loop_on_mirror_pairs_with_other_bits(self, tmp_path):
        # Symmetric by value but not by bits at (0, 1), since -0.0 == 0.0,
        # and not symmetric at all at (2, 5); every other pair is
        # bit-symmetric, so a writer that copies mirrored strings by value, or
        # copies them without looking, writes these two pairs wrong.
        grid = BeliefGrid(7)
        values = np.linspace(-3.0, 40.0, 49).reshape(7, 7)
        values = values + values.T
        values[0, 1], values[1, 0] = 0.0, -0.0
        values[2, 5] = 0.1 + 0.2
        values[5, 2] = 0.3
        result = SolveResult(ValueField(grid, values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )
        text = (tmp_path / "new").read_text()
        assert '"values": [-6.0, 0.0, ' in text and "0.30000000000000004" in text

    # save_value_field splits the held strings off in blocks of _SPLIT columns.
    @pytest.mark.parametrize("n", [_SPLIT - 1, _SPLIT, _SPLIT + 1, 2 * _SPLIT, 2 * _SPLIT + 1])
    def test_matches_loop_across_block_edges(self, n, tmp_path):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, n))
        values = values + values.T
        values[n - 1, 3] = 0.5
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )


class TestPinnedBytes:
    """sha256 of the n=7 econ A files, from the per-point writers.

    lambda = (0.1, 0.9) falls between the n=7 lattice points, so value.json
    also pins the solver's transition weights ((prob1 * prob2) * wx) * wy;
    re-pinned when the solver took that association from the LP kernels.
    """

    @pytest.fixture(scope="class")
    def solved_7(self):
        return solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, BeliefGrid(7))

    def test_value_json(self, solved_7, tmp_path):
        path = tmp_path / "value.json"
        save_value_field(path, solved_7, CH, ECON_A, DISC)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c2ef678371d405413d71b35129ff6259b603bfd5f0caeb36ffd51122c70d134c"
        )

    def test_policy_ppm(self, solved_7, tmp_path):
        path = tmp_path / "policy.ppm"
        export_policy_ppm(extract_policy(solved_7.field, CH, ECON_A, DISC), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5d035719fb123739737986fa341b8a67cdbd9eab7df702a38cef71ea382e4ed1"
        )


@pytest.mark.parametrize("policy", ["grid", "myopic", "random-uniform"])
def test_traces_csv_matches_loop_across_block_seam(policy, tmp_path):
    if policy == "grid":
        res = solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, BeliefGrid(22))
        policy = extract_policy(res.field, CH, ECON_A, DISC)
    cfg = SimConfig(
        episodes=EPISODE_BLOCK + 17, horizon=20, seed=5, initial_belief=Belief(0.3, 0.6)
    )
    _, batch = run_episodes(policy, cfg, CH, ECON_A, DISC, collect_traces=True)
    _same_bytes(
        tmp_path,
        lambda path: write_traces_csv(batch, path),
        lambda path: loop_traces_csv(batch, path),
    )
