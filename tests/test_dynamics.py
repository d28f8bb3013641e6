import numpy as np
import pytest
from hypothesis import given, strategies as st

from gepower import (
    Action,
    Belief,
    ChannelParams,
    Discount,
    EconParams,
    ParameterError,
    immediate_reward,
    propagate,
)
from gepower.dynamics import ACTION_PRIORITY, _unique, expected_rewards, propagate_array

CH = ChannelParams(0.1, 0.9)
ECON = EconParams(3.0, 2.0, 1.2, 0.8)

_prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# Channel parameter pairs with strictly positive correlation and a margin
# wide enough that derived quantities stay numerically honest.
_channels = st.tuples(
    st.floats(min_value=0.0, max_value=0.98, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
).map(lambda t: (t[0], min(t[0] + t[1], 1.0))).filter(lambda t: t[0] < t[1])


class TestParameterValidation:
    def test_lambda_order_strict(self):
        with pytest.raises(ParameterError, match="lambda0 < lambda1"):
            ChannelParams(0.5, 0.5)
        with pytest.raises(ParameterError):
            ChannelParams(0.9, 0.1)

    def test_probability_bounds(self):
        with pytest.raises(ParameterError, match="lambda0"):
            ChannelParams(-0.2, 0.9)
        # round-off within 1e-12 of the boundary is absorbed, not rejected
        ch = ChannelParams(-1e-13, 0.9)
        assert ch.lambda0 == 0.0

    def test_econ_inequalities_named(self):
        with pytest.raises(ParameterError, match="rh < 2\\*rl"):
            EconParams(4.0, 2.0, 1.2, 0.8)
        with pytest.raises(ParameterError, match="rl < rh"):
            EconParams(2.0, 2.0, 1.2, 0.8)
        with pytest.raises(ParameterError, match="ch < 2\\*cl"):
            EconParams(3.0, 2.0, 1.7, 0.8)
        with pytest.raises(ParameterError, match="rh > ch"):
            EconParams(1.3, 1.2, 1.35, 1.0)

    def test_discount_strictly_below_one(self):
        with pytest.raises(ParameterError):
            Discount(1.0)
        Discount(0.0)
        Discount(0.9)

    def test_belief_clamps_round_off(self):
        b = Belief(1.0 + 1e-13, -1e-13)
        assert b.p1 == 1.0 and b.p2 == 0.0

    def test_stationary_belief(self):
        assert CH.stationary_belief == pytest.approx(0.5)
        with pytest.raises(ParameterError):
            ChannelParams(0.0, 1.0).stationary_belief


class TestPropagate:
    def test_boundary_cases(self):
        assert propagate(0.0, CH) == 0.1
        assert propagate(1.0, CH) == 0.9
        assert propagate(0.5, CH) == pytest.approx(0.5)

    @given(p=_prob, params=_channels)
    def test_image_inside_lambda_band(self, p, params):
        ch = ChannelParams(*params)
        out = propagate(p, ch)
        assert ch.lambda0 <= out <= ch.lambda1

    @given(p=_prob, q=_prob, params=_channels)
    def test_order_preserving(self, p, q, params):
        ch = ChannelParams(*params)
        if p <= q:
            assert propagate(p, ch) <= propagate(q, ch)
        else:
            assert propagate(q, ch) <= propagate(p, ch)

    @given(p=_prob, c=_prob)
    def test_affine_combination(self, p, c):
        mix = c * p + (1 - c) * 0.25
        direct = propagate(mix, CH)
        combined = c * propagate(p, CH) + (1 - c) * propagate(0.25, CH)
        assert direct == pytest.approx(combined, abs=1e-12)

    def test_array_matches_scalar_bitwise(self):
        p = np.array([0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0])
        out = propagate_array(p, CH)
        for k, v in enumerate(p):
            assert out[k] == propagate(float(v), CH)


def propagate_n(p, n, ch):
    """n-fold belief propagation in closed form, an oracle for iterated
    propagate: pi + alpha^n (p - pi), with pi the stationary belief."""
    if n < 0:
        raise ValueError(f"n >= 0 violated: n={n!r}")
    if n == 0:
        return float(p)
    a = ch.alpha
    if a >= 1.0:
        # lambda0=0, lambda1=1: beliefs never move.
        return float(p)
    an = a ** n
    out = ch.stationary_belief * (1.0 - an) + an * p
    return min(max(out, 0.0), 1.0)


class TestPropagateN:
    def test_identity_and_single_step(self):
        assert propagate_n(0.37, 0, CH) == 0.37
        assert propagate_n(0.37, 1, CH) == pytest.approx(propagate(0.37, CH), abs=1e-12)

    def test_converges_to_stationary(self):
        assert propagate_n(0.0, 200, CH) == pytest.approx(0.5, abs=1e-12)
        assert propagate_n(1.0, 200, CH) == pytest.approx(0.5, abs=1e-12)

    @given(p=_prob, m=st.integers(0, 12), k=st.integers(0, 12), params=_channels)
    def test_closed_form_matches_composition(self, p, m, k, params):
        ch = ChannelParams(*params)
        assert propagate_n(p, m + k, ch) == pytest.approx(
            propagate_n(propagate_n(p, m, ch), k, ch), abs=1e-12
        )

    def test_composition_against_repeated_application(self):
        p = 0.123
        stepped = p
        for n in range(1, 25):
            stepped = propagate(stepped, CH)
            assert propagate_n(p, n, CH) == pytest.approx(stepped, abs=1e-12)

    def test_frozen_chain_when_alpha_is_one(self):
        ch = ChannelParams(0.0, 1.0)
        assert propagate_n(0.3, 17, ch) == 0.3


class TestImmediateReward:
    def test_pinned_values(self):
        assert immediate_reward(Belief(1.0, 0.2), Action.BET1, ECON) == pytest.approx(3.0)
        assert immediate_reward(Belief(0.4, 0.7), Action.CONSERVATIVE, ECON) == 0.0
        assert immediate_reward(Belief(0.0, 0.0), Action.BALANCED, ECON) == pytest.approx(-1.6)

    @given(p1=_prob, p2=_prob)
    def test_balanced_symmetric_and_bets_mirror(self, p1, p2):
        b = Belief(p1, p2)
        bs = Belief(p2, p1)
        assert immediate_reward(b, Action.BALANCED, ECON) == immediate_reward(
            bs, Action.BALANCED, ECON
        )
        assert immediate_reward(b, Action.BET1, ECON) == immediate_reward(
            bs, Action.BET2, ECON
        )

    def test_bet1_never_myopically_optimal_on_starved_edge(self):
        # With the first channel surely bad, full power on it is always
        # beaten by another action (resting at small p2, since ch < 2*cl
        # makes the one-channel loss milder than the two-channel loss but
        # never better than zero).
        for p2 in np.linspace(0.0, 1.0, 101):
            b = Belief(0.0, float(p2))
            g1 = immediate_reward(b, Action.BET1, ECON)
            others = max(
                immediate_reward(b, a, ECON)
                for a in (Action.BALANCED, Action.BET2, Action.CONSERVATIVE)
            )
            assert g1 < others

    @given(p1=_prob, p2=_prob)
    def test_vectorised_table_equals_scalar_definition(self, p1, p2):
        # expected_rewards serves the Q grids, the LP and the myopic
        # baseline; immediate_reward stays the independent definition.
        got = expected_rewards(np.array([p1]), np.array([p2]), ECON)
        for a, g in zip(ACTION_PRIORITY, got):
            assert g.shape == (1,)
            assert g[0] == immediate_reward(Belief(p1, p2), a, ECON)

    def test_table_broadcasts(self):
        x = np.linspace(0.0, 1.0, 5)
        got = expected_rewards(x[:, None], x[None, :], ECON)
        assert [g.shape for g in got] == [(5, 5), (5, 1), (1, 5), (5, 5)]
        assert not got[3].any()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestUnique:
    """_unique replaces np.unique in the commands; it must give np.unique's
    bits, the sign of a kept zero included."""

    @pytest.mark.parametrize("size", [1, 2, 17, 300, 5000])
    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_form_matches_np_unique(self, size, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values, many zeros of both signs, 2-D like the LP's
        # right-hand sides.
        a = rng.choice([0.0, -0.0, 1.5, -2.25, 1e-300, 3.0], size=(size, 2))
        a[rng.random(a.shape) < 0.2] = rng.normal(size=1)
        got, inverse = _unique(a, return_inverse=True)
        want, want_inverse = np.unique(a, return_inverse=True)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(inverse, want_inverse.ravel())
        assert np.array_equal(got[inverse], a.ravel())

    @pytest.mark.parametrize("seed", range(4))
    def test_plain_form_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 50, size=1000).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        assert np.array_equal(_unique(bits), np.unique(bits))
        values = rng.normal(size=(40, 25)).round(1) + 10.0
        assert np.array_equal(_bits(_unique(values)), _bits(np.unique(values)))
        assert _unique(np.array([], dtype=np.uint64)).size == 0

    def test_input_untouched(self):
        a = np.array([3.0, 1.0, 3.0, -0.0])
        _unique(a)
        _unique(a, return_inverse=True)
        assert np.array_equal(_bits(a), _bits([3.0, 1.0, 3.0, -0.0]))
