import hashlib
import itertools

import numpy as np
import pytest

from gepower import (
    Action,
    Belief,
    BeliefGrid,
    ChannelParams,
    Discount,
    EconParams,
    NonConvergence,
    ParameterError,
    SolverConfig,
    ValueField,
    analyze_structure,
    bellman_backup,
    extract_policy,
    immediate_reward,
    interpolate,
    load_value_field,
    save_value_field,
    solve,
)
from gepower import solver
from gepower.cli import main
from gepower.dynamics import ACTION_PRIORITY
from gepower.lpmodel import build_all_kernels
from gepower.solver import (
    ValueFileError,
    _evaluate,
    _extend,
    _improve,
    _parse_value_doc,
    _q_action,
    _q_grids,
    _restricted_kernel,
    _reward_table,
    _SPAN_BATCH,
    _stencils,
    _Stencils,
    _support,
    action_value_grids,
    q_probe,
)

from horizon_oracle import HorizonOracle
from loop_oracles import (
    csr_evaluate,
    csr_restricted_kernel,
    loop_action_value_grids,
    loop_support,
    q_balanced,
    q_bet1,
    q_bet2,
    q_conservative,
    select_extend,
    sparse_support,
)
from lp_oracles import as_csr

CH = ChannelParams(0.1, 0.9)
ECON = EconParams(3.0, 2.0, 1.2, 0.8)
DISC = Discount(0.9)


def _value_bounds(econ, discount):
    """Coarse analytic bounds from the extreme per-slot rewards."""
    worst = -2.0 * econ.cl
    best = max(econ.rh, 2.0 * econ.rl)
    return worst / (1.0 - discount.beta), best / (1.0 - discount.beta)


def _iterate_backups(grid, discount, tol):
    """Reference fixed point: bellman_backup from the zero field until the
    sup-norm step falls to tol. Returns (field, sweeps, last step)."""
    f = ValueField(grid, np.zeros((grid.n, grid.n)))
    for sweeps in itertools.count(1):
        nxt = bellman_backup(f, CH, ECON, discount)
        step = float(np.max(np.abs(nxt.values - f.values)))
        f = nxt
        if step <= tol:
            return f, sweeps, step


def _field(n, fn):
    grid = BeliefGrid(n)
    x = grid.points
    return ValueField(grid, fn(x[:, None], x[None, :]))


class TestInterpolate:
    def test_lattice_points_reproduced_exactly(self):
        rng = np.random.default_rng(7)
        grid = BeliefGrid(11)
        v = ValueField(grid, rng.normal(size=(11, 11)))
        for i in (0, 3, 10):
            for j in (0, 7, 10):
                b = Belief(float(grid.points[i]), float(grid.points[j]))
                assert interpolate(v, b) == v.values[i, j]

    def test_constant_field(self):
        v = _field(9, lambda x, y: 0.0 * x + 0.0 * y + 3.25)
        for b in (Belief(0.01, 0.99), Belief(0.5, 0.123), Belief(1.0, 0.0)):
            assert interpolate(v, b) == pytest.approx(3.25, abs=1e-15)

    def test_reproduces_affine_functions(self):
        v = _field(2, lambda x, y: x + y)
        assert interpolate(v, Belief(0.25, 0.75)) == pytest.approx(1.0, abs=1e-15)
        v2 = _field(17, lambda x, y: 2.0 - 3.0 * x + 0.5 * y)
        for b in (Belief(0.21, 0.68), Belief(0.999, 0.001)):
            assert interpolate(v2, b) == pytest.approx(
                2.0 - 3.0 * b.p1 + 0.5 * b.p2, abs=1e-12
            )

    def test_reproduces_bilinear_functions(self):
        v = _field(13, lambda x, y: 1.0 + 2.0 * x - y + 0.5 * x * y)
        for b in (Belief(0.37, 0.81), Belief(0.05, 0.05)):
            expect = 1.0 + 2.0 * b.p1 - b.p2 + 0.5 * b.p1 * b.p2
            assert interpolate(v, b) == pytest.approx(expect, abs=1e-12)


class TestActionValues:
    def test_zero_field_reduces_to_immediate_rewards(self):
        v = _field(21, lambda x, y: 0.0 * x * y)
        for b in (Belief(1.0, 1.0), Belief(0.0, 0.0), Belief(1.0, 0.3), Belief(0.2, 1.0)):
            assert q_balanced(v, b, CH, ECON, DISC) == pytest.approx(
                immediate_reward(b, Action.BALANCED, ECON)
            )
            assert q_bet1(v, b, CH, ECON, DISC) == pytest.approx(
                immediate_reward(b, Action.BET1, ECON)
            )
            assert q_bet2(v, b, CH, ECON, DISC) == pytest.approx(
                immediate_reward(b, Action.BET2, ECON)
            )
            assert q_conservative(v, b, CH, DISC) == 0.0

    def test_conservative_scales_constant_fields(self):
        v = _field(9, lambda x, y: 0.0 * x * y + 4.0)
        assert q_conservative(v, Belief(0.3, 0.9), CH, DISC) == pytest.approx(3.6)
        zero_beta = Discount(0.0)
        assert q_conservative(v, Belief(0.3, 0.9), CH, zero_beta) == 0.0

    def test_balanced_swap_symmetry_on_symmetric_field(self):
        v = _field(15, lambda x, y: (x - y) ** 2 + x + y)
        a = q_balanced(v, Belief(0.3, 0.7), CH, ECON, DISC)
        b = q_balanced(v, Belief(0.7, 0.3), CH, ECON, DISC)
        assert a == b

    def test_bets_mirror_through_transposed_field(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(15, 15))
        grid = BeliefGrid(15)
        v = ValueField(grid, vals)
        v_t = ValueField(grid, vals.T)
        b = Belief(0.22, 0.64)
        assert q_bet2(v, b, CH, ECON, DISC) == pytest.approx(
            q_bet1(v_t, Belief(b.p2, b.p1), CH, ECON, DISC), rel=1e-14
        )

    def test_bet1_against_closed_form_on_bilinear_field(self):
        # Interpolation is exact on a bilinear field, so q_bet1 must equal
        # the hand-expanded expression.
        c0, c1, c2, c3 = 1.0, 2.0, -1.0, 0.5

        def f(x, y):
            return c0 + c1 * x + c2 * y + c3 * x * y

        v = _field(13, f)
        b = Belief(0.3, 0.35)
        t2 = 0.8 * 0.35 + 0.1
        expect = (ECON.rh + ECON.ch) * b.p1 - ECON.ch + DISC.beta * (
            b.p1 * f(0.9, t2) + (1 - b.p1) * f(0.1, t2)
        )
        assert q_bet1(v, b, CH, ECON, DISC) == pytest.approx(expect, rel=1e-13)

    def test_bet1_against_horizon_two_recursion(self):
        # Exact one-step values on the grid, then one bet1 evaluation: this
        # equals the gridless horizon-2 recursion when the propagated belief
        # lands in a kink-free cell (0.38 is safely inside one at n=101).
        grid = BeliefGrid(101)
        x = grid.points
        one_step = np.array(
            [
                [
                    max(immediate_reward(Belief(float(a), float(bb)), act, ECON) for act in Action)
                    for bb in x
                ]
                for a in x
            ]
        )
        v1 = ValueField(grid, one_step)
        oracle = HorizonOracle(CH, ECON, DISC)
        b = Belief(0.3, 0.35)
        expect = oracle.action_value(b.p1, b.p2, 2, Action.BET1)
        assert q_bet1(v1, b, CH, ECON, DISC) == pytest.approx(expect, rel=1e-12)

    def test_grids_match_scalar_operators(self):
        rng = np.random.default_rng(11)
        grid = BeliefGrid(21)
        v = ValueField(grid, rng.normal(size=(21, 21)))
        grids = action_value_grids(v, CH, ECON, DISC)
        scalar = {
            Action.BALANCED: q_balanced,
            Action.BET1: q_bet1,
            Action.BET2: q_bet2,
        }
        for i in (0, 5, 20):
            for j in (0, 13, 20):
                b = Belief(float(grid.points[i]), float(grid.points[j]))
                for a, fn in scalar.items():
                    assert grids[a][i, j] == pytest.approx(
                        fn(v, b, CH, ECON, DISC), rel=1e-13, abs=1e-13
                    )
                assert grids[Action.CONSERVATIVE][i, j] == pytest.approx(
                    q_conservative(v, b, CH, DISC), rel=1e-13, abs=1e-13
                )


PLAN_LAMBDAS = [(0.1, 0.9), (0.13, 0.77), (0.3, 0.35), (0.0, 0.6), (0.25, 1.0)]


def _assert_grids_equal(got, expect):
    assert list(got) == list(expect) == list(ACTION_PRIORITY)
    for a in ACTION_PRIORITY:
        assert np.array_equal(got[a], expect[a]), a


class TestMemoisedPlan:
    """action_value_grids, _support and the transitions all read one
    _stencils entry per (grid, channel), and the Q grids a reward table per
    (grid, econ); they must give the oracle's and fresh builds' results bit
    for bit."""

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    @pytest.mark.parametrize("lam", PLAN_LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 7, 22, 101])
    def test_grids_match_the_oracle(self, n, lam, beta):
        ch = ChannelParams(*lam)
        discount = Discount(beta)
        grid = BeliefGrid(n)
        raw = np.random.default_rng(n).uniform(-1.0, 5.0, size=(n, n))
        fields = {
            "solved": solve(SolverConfig(discount), ch, ECON, grid).field,
            "random": ValueField(grid, raw),
            "random-symmetric": ValueField(grid, (raw + raw.T) / 2.0),
        }
        for name, v in fields.items():
            got = action_value_grids(v, ch, ECON, discount)
            _assert_grids_equal(got, loop_action_value_grids(v, ch, ECON, discount))

    @staticmethod
    def _all_transitions(st, n):
        flat = np.arange(n * n)
        mixed = np.random.default_rng(n).integers(0, 4, size=n * n)
        return [st.transitions(flat, k) for k in (0, 1, 2, 3, mixed)]

    @staticmethod
    def _reads(n, ch, econ):
        """The memo entry, and what is read through it on n points: the Q
        grids of a random field and of its symmetric part (the general and
        the mirror path), the backup of the symmetric part, a random
        policy's closed support and the transitions."""
        grid = BeliefGrid(n)
        rng = np.random.default_rng(n)
        raw = rng.uniform(size=(n, n))
        policy = rng.integers(0, 4, size=(n, n)).astype(np.int8)
        st = _stencils(grid, ch)
        reads = []
        for v in (ValueField(grid, raw), ValueField(grid, (raw + raw.T) / 2.0)):
            reads.append(action_value_grids(v, ch, econ, DISC))
            _assert_grids_equal(reads[-1], loop_action_value_grids(v, ch, econ, DISC))
        reads += [bellman_backup(v, ch, econ, DISC).values, _support(policy, st)]
        return st, reads, TestMemoisedPlan._all_transitions(st, n)

    def test_alternating_parameters_match_fresh_builds(self):
        # Two grid sizes and two channels take turns in the one entry.
        sets = [
            (n, ch, econ)
            for n in (13, 8)
            for ch, econ in [
                (ChannelParams(0.1, 0.9), EconParams(3.0, 2.0, 1.2, 0.8)),
                (ChannelParams(0.3, 0.35), EconParams(3.7, 2.0, 1.2, 0.8)),
            ]
        ]
        fresh = []
        for n, ch, econ in sets:
            _stencils.cache_clear()
            _reward_table.cache_clear()
            fresh.append(self._reads(n, ch, econ)[1:])
        for k in [0, 1, 2, 3, 0, 2, 1, 3, 3, 0, 1]:
            n, ch, econ = sets[k]
            st, (general, mirror, backup, support), transitions = self._reads(n, ch, econ)
            assert _stencils.cache_info().currsize == 1
            assert _stencils(BeliefGrid(n), ch) is st
            (want_general, want_mirror, want_backup, want_support), want_transitions = fresh[k]
            _assert_grids_equal(general, want_general)
            _assert_grids_equal(mirror, want_mirror)
            assert np.array_equal(backup, want_backup)
            assert np.array_equal(support, want_support)
            for got, want in zip(transitions, want_transitions):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_plan_arrays_are_read_only(self):
        grid = BeliefGrid(9)
        st = _stencils(grid, CH)
        cells, weights = st.both
        assert cells.shape == weights.shape == (2, 11)
        arrays = [*st.both, *st.slots, *st.x, *st.y, *_reward_table(grid, ECON)]
        assert len(arrays) == 14
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.5


def _assert_grid_bits_equal(got, expect):
    assert list(got) == list(expect) == list(ACTION_PRIORITY)
    for a in ACTION_PRIORITY:
        assert np.array_equal(_bits(got[a]), _bits(expect[a])), a


def _mirror_taken(q):
    return np.shares_memory(q[Action.BET1], q[Action.BET2])


class TestMirrorPath:
    """A bit-symmetric field's Q grids come from the mirror path, and equal
    the general path's bit for bit; any other field takes the general
    path."""

    @staticmethod
    def _symmetric_fields(n, ch, discount):
        raw = np.random.default_rng(n).uniform(-1.0, 5.0, size=(n, n))
        sym = (raw + raw.T) / 2.0
        rng = np.random.default_rng(n + 1)
        pick, negative = np.triu(rng.random((2, n, n)) < [[[0.3]], [[0.5]]])
        pick |= pick.T
        negative |= negative.T
        pick[0, -1] = pick[-1, 0] = negative[0, -1] = negative[-1, 0] = True
        pick[0, 0], negative[0, 0] = True, False
        zeros = sym.copy()
        zeros[pick] = np.where(negative, -0.0, 0.0)[pick]
        return {
            "solved": solve(SolverConfig(discount), ch, ECON, BeliefGrid(n)).field,
            "random-symmetric": ValueField(BeliefGrid(n), sym),
            "signed-zeros": ValueField(BeliefGrid(n), zeros),
        }

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    @pytest.mark.parametrize("lam", PLAN_LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 7, 22, 101])
    def test_equals_the_general_path(self, n, lam, beta):
        ch = ChannelParams(*lam)
        discount = Discount(beta)
        for name, v in self._symmetric_fields(n, ch, discount).items():
            assert np.array_equal(_bits(v.values), _bits(v.values).T), name
            got = action_value_grids(v, ch, ECON, discount)
            assert _mirror_taken(got), name
            _assert_grid_bits_equal(got, _q_grids(v, ch, ECON, discount, False))
        zero = v.values == 0.0
        assert (zero & np.signbit(v.values)).any() and (zero & ~np.signbit(v.values)).any()

    @staticmethod
    def _one_ulp_off(values, ch):
        """values raised by one ulp at the first off-diagonal point where
        that makes the general path's grids differ from the mirror path's."""
        grid = BeliefGrid(values.shape[0])
        for i, j in zip(*np.triu_indices(grid.n, 1)):
            off = values.copy()
            off[i, j] = np.nextafter(off[i, j], np.inf)
            v = ValueField(grid, off)
            general = _q_grids(v, ch, ECON, DISC, False)
            mirror = _q_grids(v, ch, ECON, DISC, True)
            if any(not np.array_equal(_bits(general[a]), _bits(mirror[a])) for a in general):
                return off
        raise AssertionError("no single ulp reaches the grids")

    @pytest.mark.parametrize("lam", [(0.1, 0.9), (0.3, 0.35)], ids=str)
    @pytest.mark.parametrize("n", [11, 22])
    def test_asymmetric_fields_take_the_general_path(self, n, lam):
        ch = ChannelParams(*lam)
        solved = solve(SolverConfig(DISC), ch, ECON, BeliefGrid(n)).field.values
        signed = solved.copy()
        signed[0, n - 1], signed[n - 1, 0] = 0.0, -0.0
        for values in (self._one_ulp_off(solved, ch), signed):
            v = ValueField(BeliefGrid(n), values)
            got = action_value_grids(v, ch, ECON, DISC)
            assert not _mirror_taken(got)
            _assert_grid_bits_equal(got, _q_grids(v, ch, ECON, DISC, False))
            probe = q_probe(v, ch, ECON, DISC)
            x = v.grid.points.tolist()
            for a in range(n):
                for b in range(n):
                    assert probe(x[a], x[b]) == tuple(
                        float(got[act][a, b]) for act in ACTION_PRIORITY
                    ), (a, b)


class TestBoxedExtend:
    """_extend computes each action's Q on the bounding box of its points
    only; every point must get the bits the full-grid path (select_extend)
    gives it."""

    LAMBDAS = [(0.1, 0.9), (0.13, 0.87)]   # the second puts no T(x_i) on the lattice

    @staticmethod
    def _assert_same(grid, support, v_support, policy, ch):
        got = _extend(grid, support, v_support, policy, ch, ECON, DISC)
        want = select_extend(grid, support, v_support, policy, ch, ECON, DISC)
        assert np.array_equal(_bits(got.values), _bits(want.values))

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 11, 101])
    def test_random_policies(self, n, lam):
        # Each action absent once, then all four present; random supports
        # and values, so the support field is asymmetric, with signed zeros.
        ch = ChannelParams(*lam)
        grid = BeliefGrid(n)
        rng = np.random.default_rng(n)
        for absent in (0, 1, 2, 3, None):
            actions = [k for k in range(4) if k != absent]
            policy = rng.choice(actions, size=(n, n)).astype(np.int8)
            support = np.flatnonzero(rng.random(n * n) < 0.6)
            v_support = rng.uniform(-3.0, 9.0, support.size)
            v_support[rng.random(support.size) < 0.2] = -0.0
            self._assert_same(grid, support, v_support, policy, ch)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 11, 101])
    def test_boxes_on_the_lattice_edges(self, n, lam):
        # One action on a background of another: a single point on each
        # edge (and corner) in turn, then on all four edges at once.
        ch = ChannelParams(*lam)
        grid = BeliefGrid(n)
        rng = np.random.default_rng(n + 7)
        support = np.arange(n * n)
        v_support = rng.uniform(0.0, 5.0, n * n)
        mid, last = n // 2, n - 1
        spots = [[(0, mid)], [(last, mid)], [(mid, 0)], [(mid, last)], [(0, 0)], [(last, last)],
                 [(0, mid), (last, mid), (mid, 0), (mid, last)]]
        for k, background in itertools.permutations(range(4), 2):
            for points in spots:
                policy = np.full((n, n), background, dtype=np.int8)
                for i, j in points:
                    policy[i, j] = k
                self._assert_same(grid, support, v_support, policy, ch)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [11, 101])
    def test_solver_policies(self, n, lam):
        # The policies and supports a solve extends, from the zero field
        # and from a solved one.
        ch = ChannelParams(*lam)
        grid = BeliefGrid(n)
        st = _stencils(grid, ch)
        solved = solve(SolverConfig(DISC), ch, ECON, grid).field
        for v in (ValueField(grid, np.zeros((n, n))), solved):
            policy = _improve(v, None, ch, ECON, DISC)[0]
            support = _support(policy, st)
            self._assert_same(grid, support, v.values.ravel()[support], policy, ch)


class TestDiagonalQ:
    """_q_action at the diagonal points against the diagonal of the full Q
    grids, bit for bit, on bit-symmetric fields (mirror path) and
    asymmetric ones (general path), with +0.0 and -0.0 entries; and on
    boxes against the grids' cuts."""

    @staticmethod
    def _fields(n, ch):
        fields = TestMirrorPath._symmetric_fields(n, ch, DISC)
        rng = np.random.default_rng(n + 3)
        raw = rng.uniform(-1.0, 5.0, size=(n, n))
        fields["asymmetric"] = ValueField(BeliefGrid(n), raw)
        signed = fields["solved"].values.copy()
        signed[0, n - 1], signed[n - 1, 0] = 0.0, -0.0
        fields["signed-zero-pair"] = ValueField(BeliefGrid(n), signed)
        zeros = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        fields["random-signed-zeros"] = ValueField(BeliefGrid(n), zeros)
        return fields

    @pytest.mark.parametrize("lam", PLAN_LAMBDAS + [(0.13, 0.87)], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 11, 101])
    def test_is_the_grids_diagonal(self, n, lam):
        ch = ChannelParams(*lam)
        for name, v in self._fields(n, ch).items():
            grids = action_value_grids(v, ch, ECON, DISC)
            for k, a in enumerate(ACTION_PRIORITY):
                diag = _q_action(v.values, v.grid, ch, ECON, DISC, k, None)
                assert diag.shape == (n,), (name, a)
                assert np.array_equal(_bits(diag), _bits(np.diagonal(grids[a]))), (name, a)

    @pytest.mark.parametrize("lam", [(0.1, 0.9), (0.13, 0.87)], ids=str)
    @pytest.mark.parametrize("n", [3, 11])
    def test_boxes_are_cuts_of_the_grids(self, n, lam):
        ch = ChannelParams(*lam)
        rng = np.random.default_rng(n)
        for name, v in self._fields(n, ch).items():
            grids = _q_grids(v, ch, ECON, DISC, False)
            for _ in range(6):
                (r0, r1), (c0, c1) = (np.sort(rng.choice(n + 1, 2, replace=False)) for _ in "rc")
                box = slice(r0, r1), slice(c0, c1)
                for k, a in enumerate(ACTION_PRIORITY):
                    got = _q_action(v.values, v.grid, ch, ECON, DISC, k, *box)
                    assert np.array_equal(_bits(got), _bits(grids[a][box])), (name, a, box)


class TestBellmanBackup:
    def test_one_step_values_at_corners(self):
        v = _field(11, lambda x, y: 0.0 * x * y)
        out = bellman_backup(v, CH, ECON, DISC)
        assert out.values[0, 0] == 0.0            # resting beats guaranteed losses
        assert out.values[-1, -1] == pytest.approx(2 * ECON.rl)   # rh < 2*rl
        # at (1,0) the one-step candidates are enumerable by hand
        candidates = [
            immediate_reward(Belief(1.0, 0.0), a, ECON) for a in Action
        ]
        assert out.values[-1, 0] == pytest.approx(max(candidates)) == pytest.approx(ECON.rh)

    def test_input_field_untouched(self):
        v = _field(11, lambda x, y: x + y)
        before = v.values.copy()
        bellman_backup(v, CH, ECON, DISC)
        np.testing.assert_array_equal(v.values, before)

    def test_contraction_on_random_field_pairs(self):
        rng = np.random.default_rng(5)
        grid = BeliefGrid(17)
        for _ in range(5):
            u = ValueField(grid, rng.normal(size=(17, 17)))
            w = ValueField(grid, rng.normal(size=(17, 17)))
            bu = bellman_backup(u, CH, ECON, DISC)
            bw = bellman_backup(w, CH, ECON, DISC)
            lhs = np.max(np.abs(bu.values - bw.values))
            rhs = DISC.beta * np.max(np.abs(u.values - w.values))
            assert lhs <= rhs + 1e-12

    def test_preserves_exact_symmetry(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(31, 31))
        sym = (raw + raw.T) / 2.0
        v = ValueField(BeliefGrid(31), sym)
        out = bellman_backup(v, CH, ECON, DISC)
        assert np.max(np.abs(out.values - out.values.T)) == 0.0


class TestSolve:
    def test_beta_zero_converges_to_myopic_max(self):
        grid = BeliefGrid(21)
        res = solve(SolverConfig(Discount(0.0), 1e-12, 10), CH, ECON, grid)
        x = grid.points
        expect = np.array(
            [
                [
                    max(immediate_reward(Belief(float(a), float(b)), act, ECON) for act in Action)
                    for b in x
                ]
                for a in x
            ]
        )
        np.testing.assert_allclose(res.field.values, expect, atol=1e-15)

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergence):
            solve(SolverConfig(DISC, 1e-9, 3), CH, ECON, BeliefGrid(21))

    def test_residual_contracts_geometrically(self):
        # stopping residual after k sweeps is at most beta^k times the
        # initial sup-norm step (which is bounded by the best one-slot gain)
        first_step = max(ECON.rh, 2 * ECON.rl)
        _, sweeps, residual = _iterate_backups(BeliefGrid(101), DISC, 1e-6)
        assert residual <= DISC.beta ** (sweeps - 1) * first_step

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    def test_matches_tight_backup_fixed_point(self, beta):
        disc = Discount(beta)
        grid = BeliefGrid(31)
        ref, _, _ = _iterate_backups(grid, disc, 1e-12)
        res = solve(SolverConfig(disc, 1e-6, 50), CH, ECON, grid)
        err = np.max(np.abs(res.field.values - ref.values))
        assert err <= beta / (1.0 - beta) * 1e-12 + 1e-12

    def test_patient_field_exactly_symmetric_and_certified(self):
        disc = Discount(0.99)
        res = solve(SolverConfig(disc, 1e-6, 50), CH, ECON, BeliefGrid(41))
        v = res.field.values
        assert np.max(np.abs(v - v.T)) == 0.0
        assert res.bound == 0.99 / (1.0 - 0.99) * res.residual
        assert res.bound <= 1e-9
        assert res.evaluation_steps > 0

    def test_bellman_residual_within_tolerance(self, solved_a, channel, econ_a, discount):
        v = solved_a.field
        grids = action_value_grids(v, channel, econ_a, discount)
        best = np.maximum.reduce([grids[a] for a in Action])
        assert np.max(np.abs(v.values - best)) <= 1e-6

    def test_converged_field_is_exactly_symmetric(self, solved_a):
        v = solved_a.field.values
        assert np.max(np.abs(v - v.T)) == 0.0

    def test_values_nonnegative_and_bounded(self, solved_a):
        lo, hi = _value_bounds(ECON, DISC)
        v = solved_a.field.values
        assert v.min() >= 0.0
        assert v.max() <= hi
        assert lo < 0.0 < hi

    def test_value_at_full_confidence_dominates_repeated_balanced(self, solved_a):
        # Oracle: the value of playing balanced forever is the solution of a
        # 4-state linear system over the observed-belief chain.
        l0, l1, beta = CH.lambda0, CH.lambda1, DISC.beta
        states = [(l0, l0), (l0, l1), (l1, l0), (l1, l1)]
        trans = np.zeros((4, 4))
        gain = np.zeros(4)
        for si, (p1, p2) in enumerate(states):
            gain[si] = (p1 + p2) * (ECON.rl + ECON.cl) - 2 * ECON.cl
            weights = {
                (l0, l0): (1 - p1) * (1 - p2),
                (l1, l1): p1 * p2,
                (l1, l0): p1 * (1 - p2),
                (l0, l1): (1 - p1) * p2,
            }
            for sj, s in enumerate(states):
                trans[si, sj] = weights[s]
        w = np.linalg.solve(np.eye(4) - beta * trans, gain)
        repeated = 2 * ECON.rl + beta * w[states.index((l1, l1))]
        v11 = solved_a.field.values[-1, -1]
        assert repeated == pytest.approx(22.0, abs=1e-9)
        assert v11 >= 2 * ECON.rl
        assert v11 >= repeated - 1e-9
        # optimal play improves on never adapting, but not wildly at (1,1)
        assert v11 - repeated <= 0.25 * v11

    def test_bet1_nearly_affine_in_second_coordinate(self, solved_a):
        # Affine for the exact value function; on the lattice the tolerance
        # must absorb interpolation slope breaks, which scale like the cell
        # width times the field's slope jumps (about 1.2e-3 of the range at
        # n=101), so the bound is set at 2e-3 of the range.
        v = solved_a.field
        spread = float(v.values.max() - v.values.min())
        for p1 in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = np.array(
                [q_bet1(v, Belief(p1, float(p2)), CH, ECON, DISC) for p2 in v.grid.points]
            )
            second = np.abs(vals[2:] - 2 * vals[1:-1] + vals[:-2])
            assert second.max() <= 2e-3 * spread

    def test_double_resolution_consistency(self, solved_a, solved_a_51):
        coarse = solved_a_51.field.values
        fine = solved_a.field.values[::2, ::2]
        assert np.max(np.abs(fine - coarse)) <= 0.05

    def test_three_backups_match_horizon_three_oracle_loosely(self):
        grid = BeliefGrid(51)
        f = ValueField(grid, np.zeros((51, 51)))
        for _ in range(3):
            f = bellman_backup(f, CH, ECON, DISC)
        oracle = HorizonOracle(CH, ECON, DISC)
        probe = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.26, 0.74), (0.9, 0.1)]
        for p1, p2 in probe:
            i = round(p1 * 50)
            j = round(p2 * 50)
            assert f.values[i, j] == pytest.approx(
                oracle.value(float(grid.points[i]), float(grid.points[j]), 3), abs=0.05
            )


class TestWarmStart:
    """solve(start=...) picks its first policy from start; its answer is the
    cold solve's, within the two certificates."""

    GRID = BeliefGrid(21)

    @staticmethod
    def _solve(ch=CH, econ=ECON, disc=DISC, start=None, grid=GRID):
        return solve(SolverConfig(disc, 1e-9, 50), ch, econ, grid, start=start)

    @pytest.mark.parametrize("ch, econ, disc", [
        (CH, EconParams(3.3, 2.0, 1.2, 0.8), DISC),
        (ChannelParams(0.15, 0.9), ECON, DISC),
        (CH, ECON, Discount(0.95)),
    ], ids=["rh", "lambda0", "beta"])
    def test_from_a_neighbouring_point(self, ch, econ, disc):
        neighbour = self._solve()
        cold = self._solve(ch, econ, disc)
        warm = self._solve(ch, econ, disc, start=neighbour.field)
        gap = np.max(np.abs(warm.field.values - cold.field.values))
        assert gap <= warm.bound + cold.bound + 1e-12
        assert warm.residual <= 1e-9
        assert np.max(np.abs(warm.field.values - warm.field.values.T)) == 0.0
        np.testing.assert_array_equal(
            extract_policy(warm.field, ch, econ, disc).primary,
            extract_policy(cold.field, ch, econ, disc).primary,
        )

    def test_from_its_own_solution(self):
        cold = self._solve()
        warm = self._solve(start=cold.field)
        assert warm.iterations <= 2 < cold.iterations
        assert warm.evaluation_steps < cold.evaluation_steps

    def test_start_on_another_grid_rejected(self):
        other = self._solve(grid=BeliefGrid(11))
        with pytest.raises(ParameterError, match="grid"):
            self._solve(start=other.field)

    def test_cold_path_bytes(self, tmp_path):
        # sha256 of the files written before solve took a start field
        assert main(["solve", "--grid", "15", "--beta", "0.95", "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("value.json", "solve_report.json")
        }
        assert digests == {
            "value.json": "146f2e51b73ed48272486dd88ceb5f6f3228c4656d6c9fc0cbadd132c80e9e7e",
            "solve_report.json":
                "18af3a8ef6e7e0ae4a6e6b56757f5a995a4c6f174dab64796f12194497a23492",
        }


class TestBenchmarkSizeBytes:
    """sha256 of the benchmark's files at its own sizes (econ A, the CLI
    defaults otherwise), taken before the mirror path, the batched span
    checks and the flat transition tables, which must not move a bit."""

    @pytest.mark.parametrize("beta, n, digests", [
        ("0.99", 201, {
            "value.json": "ddebf618c7057296c1ed0d38f1266d8b45891258acf530592031cdf6ac1462b2",
            "solve_report.json":
                "aff287b29a744c703cd2a1038028b1b55d5cf8b661e90666275fd8c90c684b85",
        }),
        ("0.9", 401, {
            "value.json": "bfb7552b060c58afc7d6eb52074623dbaacd565574d583bcbdd5ccaa62c87155",
            "solve_report.json":
                "e8c118c4b087686e903b2b1b0c1a2aa7a51628fb923b10b2757afa7e842cd372",
        }),
    ], ids=["patient", "fine"])
    def test_solve(self, tmp_path, beta, n, digests):
        assert main(["solve", "--beta", beta, "--grid", str(n), "--out", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    # The analyze and LP files, taken before the Q grids read their values
    # through one gather on one located axis and the LP took its right-hand
    # sides from the Q grids' reward table.
    @pytest.mark.parametrize("argv, digests", [
        (["--beta", "0.99", "--grid", "201"], {
            "structure.json": "6c3ae3c028b89dc181c214490de2a36eb11279f37a955a4ca1e994043bd242fe",
            "policy.csv": "3d3cdf7f32548747c675f261ee38e3c638ac8cdf6cd0d9732653cf21decbb65e",
            "policy.ppm": "b1b94593e4010122e999b2dd6e41733a98d206590f8c4fca39586843202913be",
        }),
        (["--beta", "0.99", "--grid", "201", "--rh", "3.7"], {
            "structure.json": "ffd74abab6cf20cc1bd55a3c78d5aa0d544c167bdd41939750f3ca282abfa0d6",
            "policy.csv": "0c4f76189b8df8bf7acf5a0ee878c85c31ac2d15fd3cc505d197ca01f02c8f7b",
            "policy.ppm": "fb132a2a5c9d9570281072b701002b32eb8c868466506e79453b458c197e2eba",
        }),
        (["--beta", "0.9", "--grid", "401"], {
            "structure.json": "e5305d975e9516f9f70505457e321958afb013e88d83df37ddc4bd17434f9664",
            "policy.csv": "32549b476250e2d4ee82b577c14fc4bac9ba764b3132b658c8d2048be75a6f12",
            "policy.ppm": "9bf54f822084d257f9b6aca86e0a8b7c4e844de3eb1a9702634cfb03797170d9",
        }),
    ], ids=["patient-A", "patient-B", "fine-A"])
    def test_analyze(self, tmp_path, argv, digests):
        assert main(["solve", *argv, "--out", str(tmp_path)]) == 0
        # Exit 4: the structural checks find the documented violations.
        assert main(["analyze", str(tmp_path / "value.json"), "--out", str(tmp_path)]) == 4
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("argv, digests", [
        (["--grid", "101"], {
            "model.lp": "49a15d6e4f3b56df6f90a112b59a5ab26faf286f86b30bace15cd000fe5a5d50",
            "model_meta.json": "657c21ee351b51c78fe6effd90ed9d465a757af41d7e11fe7358e748524c055c",
        }),
        (["--grid", "41", "--rh", "3.7", "--beta", "0.99"], {
            "model.lp": "b8133fd21028036fc1cf35d3a87db4968acbf5a2a4aa6b5ce682f128f324cd5e",
            "model_meta.json": "525789a4fd3df280ca6910a072f9e0ac57e580d4ddcd30382ff987a6ab8699ca",
        }),
    ], ids=["n101-A", "n41-B"])
    def test_export_lp(self, tmp_path, argv, digests):
        assert main(["export-lp", *argv, "--out", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("param, start, stop, digest", [
        ("lambda0", "0.1", "0.8",
         "df77d9206325366e460021923226ba6c2d5201afa3e25c0d799dd2c20954fa1b"),
        ("rh_over_rl", "1.05", "1.95",
         "7a96be3ee1206e33e043ab8cc262ceb17f93eb6a66453d27e5aa748745082dbd"),
        ("ch_over_cl", "1.05", "1.95",
         "4c36a95ed0583a4fa1b4361a0295cc9f8ef9357c835c9de660e50d5ddbbf7186"),
    ], ids=["lambda0", "rh_over_rl", "ch_over_cl"])
    def test_sweep(self, tmp_path, param, start, stop, digest):
        argv = ["sweep", "--param", param, "--start", start, "--stop", stop, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == digest


class TestCoarseStart:
    """A cold solve above the size rule starts from the solved half-size
    lattice; solver._solve from the zero field is the zero-start path it
    replaces there, and at or below the rule the cold solve is that path bit
    for bit. The reference calls _solve, not solve with a zero start field,
    because a started solve that fails falls back to the cold solve."""

    @staticmethod
    def _solve(n, beta, zero_start=False, max_iter=5000):
        cfg = SolverConfig(Discount(beta), 1e-6, max_iter)
        return (solver._solve if zero_start else solve)(cfg, CH, ECON, BeliefGrid(n), None)

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    def test_agrees_with_the_zero_start_above_the_rule(self, beta):
        cold, zero = self._solve(201, beta), self._solve(201, beta, zero_start=True)
        scale = float(np.abs(zero.field.values).max())
        gap = float(np.abs(cold.field.values - zero.field.values).max())
        assert gap <= cold.bound + zero.bound + 1e-12 * scale
        assert np.array_equal(cold.field.values, cold.field.values.T)
        assert cold.iterations < zero.iterations
        disc = Discount(beta)
        new, old = (
            analyze_structure(r.field, extract_policy(r.field, CH, ECON, disc), CH, ECON, disc)
            for r in (cold, zero)
        )
        assert new.flags == old.flags
        assert new.diagonal.kind == old.diagonal.kind
        for got, want in [
            (new.edges.th1, old.edges.th1), (new.edges.th2, old.edges.th2),
            (new.diagonal.rho1, old.diagonal.rho1), (new.diagonal.rho2, old.diagonal.rho2),
        ]:
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [7, 51, 101])
    def test_zero_start_at_or_below_the_rule(self, n):
        cold, zero = self._solve(n, 0.9), self._solve(n, 0.9, zero_start=True)
        assert np.array_equal(cold.field.values, zero.field.values)
        assert (cold.iterations, cold.evaluation_steps, cold.residual) == (
            zero.iterations, zero.evaluation_steps, zero.residual
        )

    @pytest.mark.parametrize("max_iter", range(1, 9))
    def test_never_fails_where_the_zero_start_converges(self, max_iter):
        try:
            self._solve(201, 0.9, zero_start=True, max_iter=max_iter)
        except NonConvergence:
            return
        self._solve(201, 0.9, max_iter=max_iter)

    def test_falls_back_where_the_cascade_fails(self):
        # At this tolerance and cap the cascade's n=401 solve stops after 3
        # improvements at residual 1.137e-13; the zero start converges in 7.
        grid = BeliefGrid(401)
        cfg = SolverConfig(Discount(0.99), 1e-13, 7)
        cold = solve(cfg, CH, ECON, grid)
        zero = solver._solve(cfg, CH, ECON, grid, None)
        assert np.array_equal(cold.field.values, zero.field.values)
        assert (cold.iterations, cold.evaluation_steps, cold.residual) == (
            zero.iterations, zero.evaluation_steps, zero.residual
        )

    def test_a_failed_cascade_solve_falls_back_to_the_zero_start(self, monkeypatch):
        real, lattices = solver._solve, []

        def first_fails(cfg, ch, econ, grid, v):
            lattices.append(grid.n)
            if len(lattices) == 1:
                raise NonConvergence(0, 1.0, cfg.tol)
            return real(cfg, ch, econ, grid, v)

        monkeypatch.setattr(solver, "_solve", first_fails)
        cold = self._solve(201, 0.9)
        monkeypatch.undo()
        zero = self._solve(201, 0.9, zero_start=True)
        assert lattices == [101, 201]
        assert np.array_equal(cold.field.values, zero.field.values)
        assert (cold.iterations, cold.evaluation_steps, cold.residual) == (
            zero.iterations, zero.evaluation_steps, zero.residual
        )

    def test_capped_cli_solve_still_exits_3(self, tmp_path):
        assert main(["solve", "--grid", "201", "--max-iter", "1", "--out", str(tmp_path)]) == 3


class TestStartRule:
    """solve tries the given start, then the cold start (above the size rule,
    solve on the half lattice interpolated), then the zero field. The spy
    records each _solve call as (n, "start" or "zero") in calls, and makes
    the calls whose 1-based numbers are in fail raise NonConvergence."""

    CFG = SolverConfig(DISC, 1e-6, 5000)

    @pytest.fixture
    def spy(self, monkeypatch):
        real, calls, fail = solver._solve, [], []

        def spied(cfg, ch, econ, grid, v):
            calls.append((grid.n, "zero" if v is None else "start"))
            if len(calls) in fail:
                raise NonConvergence(0, 1.0, cfg.tol)
            return real(cfg, ch, econ, grid, v)

        monkeypatch.setattr(solver, "_solve", spied)
        return calls, fail

    @staticmethod
    def _same(got, want):
        assert np.array_equal(got.field.values, want.field.values)
        assert (got.iterations, got.evaluation_steps, got.residual) == (
            want.iterations, want.evaluation_steps, want.residual
        )

    def _neighbour(self, n):
        # A warm start: the solved field of a nearby reward ratio.
        return solve(self.CFG, CH, EconParams(3.3, 2.0, 1.2, 0.8), BeliefGrid(n)).field

    @pytest.mark.parametrize("n, want", [
        (7, [(7, "zero")]),
        (101, [(101, "zero")]),
        (102, [(51, "zero"), (102, "start")]),
        (201, [(101, "zero"), (201, "start")]),
        (401, [(101, "zero"), (201, "start"), (401, "start")]),
    ])
    def test_cold_solve_calls(self, spy, n, want):
        calls, _ = spy
        solve(self.CFG, CH, ECON, BeliefGrid(n))
        assert calls == want

    def test_converging_warm_start_makes_one_call(self, spy):
        calls, _ = spy
        start = self._neighbour(201)
        calls.clear()
        solve(self.CFG, CH, ECON, BeliefGrid(201), start=start)
        assert calls == [(201, "start")]

    @pytest.mark.parametrize("n, want", [
        (101, [(101, "start"), (101, "zero")]),
        (201, [(201, "start"), (101, "zero"), (201, "start")]),
    ])
    def test_failed_warm_start_falls_back_to_the_cold_solve(self, spy, monkeypatch, n, want):
        calls, fail = spy
        start = self._neighbour(n)
        calls.clear()
        fail.append(1)
        got = solve(self.CFG, CH, ECON, BeliefGrid(n), start=start)
        assert calls == want
        monkeypatch.undo()
        self._same(got, solve(self.CFG, CH, ECON, BeliefGrid(n)))

    def test_failed_cascade_lattice_falls_back_on_that_lattice(self, spy, monkeypatch):
        # The started 201 solve fails, so the 201 lattice falls back to its
        # zero start, and the 401 solve starts from that field.
        calls, fail = spy
        fail.append(2)
        got = solve(self.CFG, CH, ECON, BeliefGrid(401))
        assert calls == [(101, "zero"), (201, "start"), (201, "zero"), (401, "start")]
        monkeypatch.undo()
        grid = BeliefGrid(401)
        coarse = solver._solve(self.CFG, CH, ECON, BeliefGrid(201), None).field
        self._same(got, solver._solve(self.CFG, CH, ECON, grid, solver._refined(coarse, grid)))


# Channels with lambda between lattice points, two close lambdas, lambda1 = 1
# and lambda0 = 0 (the last two put a cell vertex of weight zero in the
# observed stencil).
SUPPORT_LAMBDAS = [(0.1, 0.9), (0.3, 0.35), (0.25, 1.0), (0.0, 0.6)]


def _table_csr(table):
    """A _restricted_kernel slot-major table as a CSR matrix. Real entries
    have nonzero weight and come first in their row; the padding after
    them is dropped."""
    cols, probs = table
    real = probs.T != 0.0
    assert not (real[:, 1:] & ~real[:, :-1]).any()
    indptr = np.concatenate([[0], np.cumsum(real.sum(axis=1))])
    return as_csr(indptr, cols.T[real], probs.T[real])


class TestPolicyEvaluation:
    @pytest.mark.parametrize("lam", SUPPORT_LAMBDAS)
    def test_support_is_closed_and_kernel_matches_lattice_kernels(self, lam):
        # Against the LP export's kernels, for a random policy.
        grid = BeliefGrid(22)
        ch = ChannelParams(*lam)
        policy = np.random.default_rng(2).integers(0, 4, size=(22, 22)).astype(np.int8)
        st = _Stencils(grid, ch)
        support = _support(policy, st)
        full = {a: as_csr(*k).toarray() for a, k in build_all_kernels(grid, ch).items()}
        rows = np.stack([full[ACTION_PRIORITY[k]][p] for p, k in enumerate(policy.ravel())])
        outside = np.setdiff1d(np.arange(22 * 22), support)
        assert not rows[:, outside].any()
        restricted = _table_csr(_restricted_kernel(support, policy, st)).toarray()
        assert np.array_equal(restricted, rows[support][:, support])

    @pytest.mark.parametrize("lam", SUPPORT_LAMBDAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 22, 37])
    def test_support_is_the_loop_support(self, n, lam, monkeypatch):
        grid = BeliefGrid(n)
        ch = ChannelParams(*lam)
        visited = []

        def record(policy, st):
            visited.append(policy.copy())
            return _support(policy, st)

        monkeypatch.setattr("gepower.solver._support", record)
        solve(SolverConfig(DISC), ch, ECON, grid)
        assert visited
        policies = visited + [np.random.default_rng(n).integers(0, 4, (n, n)).astype(np.int8)]
        policies += [np.full((n, n), k, dtype=np.int8) for k in range(4)]
        st = _Stencils(grid, ch)
        for policy in policies:
            assert np.array_equal(_support(policy, st), loop_support(policy, grid, ch))

    @pytest.mark.parametrize("lam", [(0.1, 0.9), (0.3, 0.35)])
    @pytest.mark.parametrize("n", [2, 11, 22, 37])
    def test_constant_policy_kernel_is_the_lp_kernel(self, n, lam):
        grid = BeliefGrid(n)
        ch = ChannelParams(*lam)
        st = _Stencils(grid, ch)
        everywhere = np.arange(n * n)
        kernels = build_all_kernels(grid, ch)
        for k, action in enumerate(ACTION_PRIORITY):
            policy = np.full((n, n), k, dtype=np.int8)
            got = _table_csr(_restricted_kernel(everywhere, policy, st))
            ref = as_csr(*kernels[action])
            assert np.array_equal(got.indptr, ref.indptr), action
            assert np.array_equal(got.indices, ref.indices), action
            assert np.array_equal(got.data, ref.data), action


def _test_channel(n, on_lattice):
    # On the lattice, lambda's cell has an upper vertex of weight zero,
    # which still belongs to the support.
    if on_lattice:
        return ChannelParams(round(0.1 * (n - 1)) / (n - 1), round(0.9 * (n - 1)) / (n - 1))
    return ChannelParams(0.13, 0.77)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestScipyOracles:
    """The numpy support and Jacobi steps against the scipy formulations
    they replaced, bit for bit."""

    @staticmethod
    def _policies(n):
        rng = np.random.default_rng(n)
        yield rng.integers(0, 4, size=(n, n)).astype(np.int8)
        yield rng.choice([0, 3], size=(n, n), p=[0.1, 0.9]).astype(np.int8)
        for k in range(4):
            yield np.full((n, n), k, dtype=np.int8)

    @pytest.mark.parametrize("beta", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("on_lattice", [True, False], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("n", [7, 22, 41])
    def test_support_and_evaluation(self, n, on_lattice, beta):
        # Besides the solver's cap, caps that end the first batch of steps
        # early, at its end and one step into the next.
        st = _Stencils(BeliefGrid(n), _test_channel(n, on_lattice))
        rng = np.random.default_rng(n + 1)
        caps = [1, _SPAN_BATCH - 1, _SPAN_BATCH, _SPAN_BATCH + 1, 100 + int(40.0 / (1.0 - beta))]
        for policy in self._policies(n):
            support = _support(policy, st)
            assert np.array_equal(support, sparse_support(policy, st))
            gain = rng.normal(size=support.size)
            gain[::5] = 0.0
            gain[1::7] = -0.0
            kernel = _restricted_kernel(support, policy, st)
            csr = csr_restricted_kernel(support, policy, st)
            for max_steps in caps:
                got, steps = _evaluate(kernel, gain, beta, max_steps)
                ref, ref_steps = csr_evaluate(csr, gain, beta, max_steps)
                assert steps == ref_steps <= max_steps
                assert np.array_equal(_bits(got), _bits(ref))

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_evaluation_in_smaller_batches(self, batch, monkeypatch):
        # A support too large for _SPAN_BATCH steps in the iterate buffer
        # takes fewer per batch, down to one.
        st = _Stencils(BeliefGrid(22), _test_channel(22, False))
        rng = np.random.default_rng(3)
        for policy in self._policies(22):
            support = _support(policy, st)
            monkeypatch.setattr(solver, "_SPAN_ENTRIES", (batch + 1) * support.size)
            gain = rng.normal(size=support.size)
            kernel = _restricted_kernel(support, policy, st)
            csr = csr_restricted_kernel(support, policy, st)
            for max_steps in (1, 2, 3, 4, 5, 7, 530):
                got, steps = _evaluate(kernel, gain, 0.99, max_steps)
                ref, ref_steps = csr_evaluate(csr, gain, 0.99, max_steps)
                assert steps == ref_steps
                assert np.array_equal(_bits(got), _bits(ref))


class TestSerialization:
    def test_round_trip(self, tmp_path, solved_a_51):
        path = tmp_path / "value.json"
        save_value_field(path, solved_a_51, CH, ECON, DISC)
        loaded, ch, econ, disc = load_value_field(path)
        np.testing.assert_array_equal(loaded.field.values, solved_a_51.field.values)
        assert loaded.iterations == solved_a_51.iterations
        assert loaded.residual == solved_a_51.residual
        assert ch == CH and econ == ECON and disc == DISC

    def test_deterministic_bytes(self, tmp_path, solved_a_51):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_value_field(p1, solved_a_51, CH, ECON, DISC)
        save_value_field(p2, solved_a_51, CH, ECON, DISC)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key", ["n", "iterations"])
    @pytest.mark.parametrize("count", [2.7, 3.9, True, "3"], ids=str)
    def test_non_integral_count_rejected(self, key, count):
        # int() would read 2.7 as 2, 3.9 and "3" as 3 and true as 1; the zero
        # field is sized so that only the count itself is wrong.
        n = int(float(count)) if key == "n" else 3
        doc = {
            "n": n, "lambda0": 0.1, "lambda1": 0.9, "rh": 3.0, "rl": 2.0, "ch": 1.2,
            "cl": 0.8, "beta": 0.9, "iterations": 1, "residual": 0.0, "values": [0.0] * (n * n),
        }
        if n >= 2:
            assert _parse_value_doc(dict(doc))[0].field.grid.n == n
        doc[key] = count
        with pytest.raises(ValueFileError, match="integral"):
            _parse_value_doc(doc)

    def test_integral_float_count_accepted(self):
        doc = {
            "n": 3.0, "lambda0": 0.1, "lambda1": 0.9, "rh": 3.0, "rl": 2.0, "ch": 1.2,
            "cl": 0.8, "beta": 0.9, "iterations": 4.0, "residual": 0.0, "values": [0.0] * 9,
        }
        result = _parse_value_doc(doc)[0]
        assert result.field.grid.n == 3 and result.iterations == 4
        assert type(result.iterations) is int


@pytest.mark.parametrize("n", [10**308, 2**32, 2**30], ids=["1e308", "2^32", "2^30"])
def test_unaddressable_grid_rejected(n):
    # An n x n float64 field needs 8 n^2 bytes, which must fit in np.intp.
    with pytest.raises(ParameterError, match="grid size"):
        BeliefGrid(n)
