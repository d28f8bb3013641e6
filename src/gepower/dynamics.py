"""Parameters, beliefs, actions, and closed-form belief propagation for a
pair of identical two-state (good/bad) Markov channels.

Everything in this module is exact arithmetic on scalars or flat arrays;
no discretization happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ParameterError",
    "ChannelParams",
    "EconParams",
    "Discount",
    "Belief",
    "Action",
    "ACTION_PRIORITY",
    "propagate",
    "propagate_array",
    "immediate_reward",
    "expected_rewards",
]

# Absolute slack accepted on probabilities that went through text round-trips.
PROB_TOL = 1e-12


class ParameterError(ValueError):
    """A parameter set violates one of the model inequalities."""


def _as_probability(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite probability, got {value!r}")
    if value < -PROB_TOL or value > 1.0 + PROB_TOL:
        raise ParameterError(f"0 <= {name} <= 1 violated: {name}={value!r}")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class ChannelParams:
    """Transition probabilities of one channel.

    lambda0 is P[good next | bad now] and lambda1 is P[good next | good now].
    Strict positive correlation (lambda0 < lambda1) is required; the boundary
    case collapses the belief dynamics and is rejected rather than half
    supported.
    """

    lambda0: float
    lambda1: float

    def __post_init__(self):
        object.__setattr__(self, "lambda0", _as_probability("lambda0", self.lambda0))
        object.__setattr__(self, "lambda1", _as_probability("lambda1", self.lambda1))
        if not self.lambda0 < self.lambda1:
            raise ParameterError(
                f"lambda0 < lambda1 violated: lambda0={self.lambda0!r}, "
                f"lambda1={self.lambda1!r}"
            )

    @property
    def alpha(self):
        """Slope of the one-step belief map, in (0, 1]."""
        return self.lambda1 - self.lambda0

    @property
    def stationary_belief(self):
        """Fixed point of the belief map; the chain's long-run P[good]."""
        if self.alpha >= 1.0:
            raise ParameterError(
                "stationary belief undefined: lambda0=0, lambda1=1 freezes beliefs"
            )
        return self.lambda0 / (1.0 - self.alpha)


@dataclass(frozen=True)
class EconParams:
    """Per-slot bit rewards and losses.

    rh/rl: bits delivered by a good channel under full/half power.
    ch/cl: bits lost on a bad channel under full/half power.
    """

    rh: float
    rl: float
    ch: float
    cl: float

    def __post_init__(self):
        for name in ("rh", "rl", "ch", "cl"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        checks = (
            (self.rl > 0.0, f"rl > 0 violated: rl={self.rl!r}"),
            (self.rl < self.rh, f"rl < rh violated: rl={self.rl!r}, rh={self.rh!r}"),
            (self.rh < 2.0 * self.rl, f"rh < 2*rl violated: rh={self.rh!r}, rl={self.rl!r}"),
            (self.cl > 0.0, f"cl > 0 violated: cl={self.cl!r}"),
            (self.cl < self.ch, f"cl < ch violated: cl={self.cl!r}, ch={self.ch!r}"),
            (self.ch < 2.0 * self.cl, f"ch < 2*cl violated: ch={self.ch!r}, cl={self.cl!r}"),
            (self.rh > self.ch, f"rh > ch violated: rh={self.rh!r}, ch={self.ch!r}"),
            (self.rl > self.cl, f"rl > cl violated: rl={self.rl!r}, cl={self.cl!r}"),
        )
        for ok, msg in checks:
            if not ok:
                raise ParameterError(msg)


@dataclass(frozen=True)
class Discount:
    """Discount factor, strictly below one so the infinite sum converges."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and 0.0 <= self.beta < 1.0):
            raise ParameterError(f"0 <= beta < 1 violated: beta={self.beta!r}")


@dataclass(frozen=True)
class Belief:
    """P[channel good] for the two channels, each in [0, 1]."""

    p1: float
    p2: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _as_probability("p1", self.p1))
        object.__setattr__(self, "p2", _as_probability("p2", self.p2))


class Action(Enum):
    """Power split for one slot: both channels, one channel, or neither."""

    BALANCED = "balanced"
    BET1 = "bet1"
    BET2 = "bet2"
    CONSERVATIVE = "conservative"


# Tie-break order whenever a single action must be rendered per point.
ACTION_PRIORITY = (Action.BALANCED, Action.BET1, Action.BET2, Action.CONSERVATIVE)

# Which channels an action powers (and therefore observes).
USES_CHANNEL = {
    Action.BALANCED: (True, True),
    Action.BET1: (True, False),
    Action.BET2: (False, True),
    Action.CONSERVATIVE: (False, False),
}


def propagate(p, ch):
    """One-step belief update for an unobserved channel.

    Affine map alpha*p + lambda0; endpoints are pinned exactly so that
    fixed-point identities downstream hold without rounding dust.
    """
    if p == 0.0:
        return ch.lambda0
    if p == 1.0:
        return ch.lambda1
    return min(max(ch.alpha * p + ch.lambda0, ch.lambda0), ch.lambda1)


def propagate_array(p, ch):
    """Vectorized propagate; bit-identical to the scalar version per entry."""
    p = np.asarray(p, dtype=np.float64)
    out = np.clip(ch.alpha * p + ch.lambda0, ch.lambda0, ch.lambda1)
    out[p == 0.0] = ch.lambda0
    out[p == 1.0] = ch.lambda1
    return out


def immediate_reward(b, a, econ):
    """Expected bits gained in one slot at belief b under action a."""
    if a is Action.BET1:
        return b.p1 * (econ.rh + econ.ch) - econ.ch
    if a is Action.BET2:
        return b.p2 * (econ.rh + econ.ch) - econ.ch
    if a is Action.BALANCED:
        return (b.p1 + b.p2) * (econ.rl + econ.cl) - 2.0 * econ.cl
    if a is Action.CONSERVATIVE:
        return 0.0
    raise TypeError(f"not an Action: {a!r}")


def expected_rewards(p1, p2, econ):
    """Expected bits gained in one slot by every action, in ACTION_PRIORITY
    order, at beliefs p1 and p2 (arrays that broadcast against each other).

    The vectorised counterpart of immediate_reward: the Q grids, the LP
    right-hand sides and the myopic baseline all read it.
    """
    full = econ.rh + econ.ch
    return (
        (p1 + p2) * (econ.rl + econ.cl) - 2.0 * econ.cl,
        full * p1 - econ.ch,
        full * p2 - econ.ch,
        np.zeros(np.broadcast_shapes(np.shape(p1), np.shape(p2))),
    )


def _unique(a, return_inverse=False):
    """Sorted distinct values of a flattened array without NaN, and with
    return_inverse the index of each entry's value among them.

    np.unique gives the same, but its first call imports numpy.ma. With
    the inverse this sorts by the default argsort, as np.unique does, so
    where equal values differ in bits (0.0 and -0.0) it keeps the one
    np.unique keeps. Without it, which of two such values is kept is not
    pinned; the callers pass bit patterns, or drop zeros.
    """
    a = np.array(a).ravel()
    if return_inverse:
        order = a.argsort()
        a = a[order]
    else:
        a.sort()
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    if not return_inverse:
        return a[head]
    inverse = np.empty(a.size, dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return a[head], inverse
