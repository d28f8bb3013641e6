"""Closed-loop Monte Carlo of the two-channel system under a fixed policy.

True channel states evolve as hidden two-state chains; the controller sees
only what its actions reveal and tracks beliefs with the same propagation
the solver assumes, so empirical discounted returns can be held against the
value function.

Randomness: one np.random.default_rng(seed) stream per run (seeds of any
size work through SeedSequence), read as rows of 2 + 3H uniforms, one row
per episode in episode order. Row k depends only on (seed, H, k), so a run
is the prefix of any longer run with the same seed and horizon, summaries
are reproducible bit for bit, and different policies share identical
channel paths for paired comparisons. Row layout: two initial-state draws,
then per slot one action draw and two transition draws.

Stepping: every belief a channel can hold is T^k of its last observation or
of its initial belief, so beliefs are carried as integer codes, one per
distinct belief, and a policy that reads beliefs (a PolicyField or myopic)
is one int8 table over the code pairs, built once per run. The codes are
stepped only for such a policy or to record traces; the fixed baselines act
by one code and random-uniform by its action draws. T^k converges to the
stationary belief, so a channel's distinct beliefs, and with them the
table, stop growing with H: 317 codes a channel and 0.1 MB with lambda =
(0.1, 0.9) from (0.5, 0.5) at H = 200 and at H = 4603. The stream is drawn
a chunk of rows at a time, and each chunk is reduced at once to int8 codes:
a channel's transition code (u < lambda0) + (u < lambda1) takes state g to
(g + code) >> 1, the two channels' codes share one byte per slot, and
random-uniform adds one action byte per slot. An episode so holds H bytes
(2H for random-uniform), not its 8(2 + 3H) bytes of uniforms. Up to
STEP_BLOCK episodes are stepped together, one slot at a time, by flat
lookups in the action, discounted reward and code tables, and their
actions are counted once a block.

Draw threads: a step block's rows are split into contiguous ranges, one per
CPU in the process's affinity mask but at most DRAW_RANGES, and drawn at
once, the first by the calling thread and each other one by a thread of its
own. Each range buffers DRAW_CHUNK // ranges rows, and a block has no more
ranges than such chunks, so a small block is one range and starts no
thread. The stream is PCG64, and Generator.random takes exactly one 64-bit
output per double, so row k starts k(2 + 3H) outputs in: each range seeds
its own PCG64 and jumps it there with advance(), in O(log k) steps, and
writes its codes into its own columns of the block's arrays. Stepping stays
on the calling thread: its per-slot numpy calls are too short to run in
parallel under the interpreter lock. No result depends on DRAW_CHUNK,
STEP_BLOCK or the number of draw threads.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (
    ACTION_PRIORITY,
    USES_CHANNEL,
    Action,
    Belief,
    ParameterError,
    _unique,
    expected_rewards,
    propagate_array,
)
from .policy import PolicyField

__all__ = [
    "BASELINES",
    "SimConfig",
    "TraceBatch",
    "SimSummary",
    "run_episodes",
    "summary_to_dict",
    "save_summary",
    "write_traces_csv",
]

BASELINES = ("myopic", "always-balanced", "always-conservative", "random-uniform")


# Rows of uniforms buffered at a time, shared among the draw ranges; each
# range's chunk is reduced to int8 codes at once.
DRAW_CHUNK = 256
# Draw ranges a step block is split into at most, whatever the CPU count: the
# threaded draw was measured on two CPUs only, and more ranges means smaller
# chunks, each a dozen numpy calls. Raise it only after measuring on more.
DRAW_RANGES = 2
# Episodes stepped together, one slot at a time. A block's codes (at most 2H
# bytes an episode) and the DRAW_CHUNK rows of uniforms that all its draw
# ranges buffer together take about half of what 2048 rows of uniforms take,
# at every horizon H and any number of draw threads.
STEP_BLOCK = 10240
# Episodes formatted at a time by write_traces_csv.
EPISODE_BLOCK = 2048


@dataclass(frozen=True)
class SimConfig:
    """Episode count, horizon, master seed, and the common starting point."""

    episodes: int
    horizon: int
    seed: int
    initial_belief: Belief

    def __post_init__(self):
        if self.episodes < 1:
            raise ParameterError(f"episodes >= 1 violated: {self.episodes!r}")
        if self.horizon < 1:
            raise ParameterError(f"horizon >= 1 violated: {self.horizon!r}")
        if self.seed < 0:
            raise ParameterError(f"seed >= 0 violated: {self.seed!r}")


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """Per-slot records of all episodes, episode index first."""

    states: np.ndarray     # (episodes, horizon, 2) true good/bad states
    beliefs: np.ndarray    # (episodes, horizon, 2) belief before acting
    actions: np.ndarray    # (episodes, horizon) indices into ACTION_PRIORITY
    rewards: np.ndarray    # (episodes, horizon) realized bits
    cum_disc: np.ndarray   # (episodes, horizon) running discounted total


@dataclass(frozen=True)
class SimSummary:
    policy: str
    episodes: int
    horizon: int
    seed: int
    mean: float
    se: float
    action_freq: dict
    truncation_bound: float
    truncation_ok: bool


# The joint state of the two channels is G = 2 * g1 + g2; these are g1 and g2.
_PAIR_STATES = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])


def _belief_codes(cfg, ch):
    """Per channel: its beliefs by code, the transitions between codes, and
    the code of its initial belief.

    A channel's belief is T^k of its last observation (lambda0 or lambda1)
    or of its initial belief, with k <= horizon. Beliefs with one bit
    pattern share one code, so a channel has at most 3(H+1) codes; as T^k
    converges to the stationary belief the late terms of the three chains
    coincide, and the count stops growing with H. Returns (tab, nxt, start):
    tab[i], channel i's distinct beliefs, indexed by code; nxt[i][(4a + G)
    * C + code], its next code after action a in joint state G, where C =
    tab[i].size; start[i], the code of its initial belief.
    """
    H = cfg.horizon
    b0 = cfg.initial_belief
    chains = np.empty((2, 3, H + 1))
    cur = np.array([[ch.lambda0, ch.lambda1, b0.p1], [ch.lambda0, ch.lambda1, b0.p2]])
    for k in range(H + 1):
        chains[:, :, k] = cur
        cur = propagate_array(cur, ch)
    used = np.array([USES_CHANNEL[a] for a in ACTION_PRIORITY]).T[:, :, None, None]
    tab, nxt, start = [], [], []
    for i, chain in enumerate(chains):
        bits = _unique(chain.view(np.uint64))
        beliefs = bits.view(np.float64)
        # T of a belief met at k < H is its chain's next term, so it has a
        # code; a belief met only at k = H is never propagated.
        drifted = propagate_array(beliefs, ch).view(np.uint64)
        drift = np.minimum(np.searchsorted(bits, drifted), bits.size - 1)
        drift = np.where(bits[drift] == drifted, drift, np.arange(bits.size))
        firsts = np.searchsorted(bits, chain[:, 0].view(np.uint64))   # lambda0, lambda1, b0
        nxt.append(np.where(used[i], firsts[_PAIR_STATES[i]][:, None], drift).ravel())
        tab.append(beliefs)
        start.append(int(firsts[2]))
    return tab, nxt, start


def _transition_code(u, ch):
    """int8 (u < lambda0) + (u < lambda1): a channel in state g moves to
    (g + code) >> 1, which is u < lambda_g because lambda0 < lambda1."""
    code = (u < ch.lambda0).view(np.int8)
    code += u < ch.lambda1
    return code


def _pair_moves():
    """pnext[4 * (3 * tr1 + tr2) + G]: the joint state after transition codes
    tr1 and tr2 from joint state G."""
    g1, g2 = _PAIR_STATES
    tr1, tr2 = np.divmod(np.arange(9), 3)
    nxt = 2 * ((g1 + tr1[:, None]) >> 1) + ((g2 + tr2[:, None]) >> 1)
    return nxt.ravel()


def _cpus():
    """CPUs this process may run on: its affinity mask, else the machine's
    CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _draw_workers():
    """Draw ranges a block is split into: one per CPU this process may run
    on, at most DRAW_RANGES."""
    return min(_cpus(), DRAW_RANGES)


def _draw_range(seed, first, pair, moves, acts, chunk, b0, ch):
    """Rows first, first + 1, ... of the stream, one per element of pair,
    drawn chunk rows at a time into one buffer and reduced to int8 codes in
    pair, moves and acts (None unless random-uniform): see _draw_block."""
    n = pair.size
    width = 2 + 3 * moves.shape[0]
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first * width)
    gen = np.random.Generator(bitgen)
    buf = np.empty((min(chunk, n), width))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        u = gen.random(out=buf[:hi - lo])
        pair[lo:hi] = 2 * (u[:, 0] < b0.p1) + (u[:, 1] < b0.p2)
        code = _transition_code(u, ch)
        move = code[:, 3::3] * 12
        move += code[:, 4::3] * 4
        moves[:, lo:hi] = move.T
        if acts is not None:
            act = (u[:, 2::3] * 4).astype(np.int8)
            np.minimum(act, 3, out=act)
            act <<= 2
            acts[:, lo:hi] = act.T


def _draw_block(seed, first, n, H, b0, ch, random_actions):
    """Rows first .. first + n - 1 of the stream, reduced to int8 codes: the
    initial joint states, the joint moves[t, e] = 4 * (3 * tr1 + tr2) of
    each slot and, for random-uniform, each slot's action code 4a.
    Slot-major, so a slot reads a contiguous row.

    The rows are split into up to _draw_workers() contiguous ranges, and the
    ranges share DRAW_CHUNK rows of buffers; the calling thread draws the
    first range and one thread each the others (see the module notes). A
    worker's exception is raised here, after every thread has been joined.
    """
    pair = np.empty(n, dtype=np.intp)
    moves = np.empty((H, n), dtype=np.int8)
    acts = np.empty((H, n), dtype=np.int8) if random_actions else None
    workers = _draw_workers()
    chunk = max(1, DRAW_CHUNK // workers)
    count = min(workers, -(-n // chunk))
    cuts = [n * r // count for r in range(count + 1)]
    jobs = [
        (seed, first + a, pair[a:b], moves[:, a:b], None if acts is None else acts[:, a:b],
         chunk, b0, ch)
        for a, b in zip(cuts, cuts[1:])
    ]
    errors = []

    def draw(job):
        try:
            _draw_range(*job)
        except BaseException as exc:    # raised again by the caller
            errors.append(exc)

    threads = []
    try:
        for job in jobs[1:]:
            thread = threading.Thread(target=draw, args=(job,))
            thread.start()
            threads.append(thread)
        _draw_range(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return pair, moves, acts


def _reward_table(econ):
    """R[action, g1, g2]: the slot's realized reward."""
    half = np.array([-econ.cl, econ.rl])
    full = np.array([-econ.ch, econ.rh])
    r = np.zeros((len(ACTION_PRIORITY), 2, 2))
    r[ACTION_PRIORITY.index(Action.BALANCED)] = half[:, None] + half[None, :]
    r[ACTION_PRIORITY.index(Action.BET1)] = full[:, None]
    r[ACTION_PRIORITY.index(Action.BET2)] = full[None, :]
    return r


def _action_table(policy, tab, econ):
    """table[c1, c2], the action index at each belief-code pair, for a
    policy that reads beliefs: a PolicyField or myopic."""
    if isinstance(policy, PolicyField):
        idx = [np.rint(b * (policy.grid.n - 1)).astype(np.intp) for b in tab]
        return policy.primary.astype(np.int8)[np.ix_(*idx)]
    # Eight rows at a time keeps the float temporaries small, and so peak
    # RSS; actions in priority order, so argmax tie-breaks like `primary`.
    shape = tab[0].size, tab[1].size
    table = np.empty(shape, dtype=np.int8)
    for lo in range(0, shape[0], 8):
        p1, p2 = np.broadcast_arrays(tab[0][lo:lo + 8, None], tab[1])
        table[lo:lo + 8] = np.argmax(expected_rewards(p1, p2, econ), axis=0)
    return table


def run_episodes(policy, cfg, ch, econ, discount, value_scale=None, collect_traces=False):
    """Estimate a policy's discounted return by simulation.

    policy is a PolicyField (actions read at the nearest lattice point) or
    one of BASELINES. Returns a SimSummary; with collect_traces also a
    TraceBatch. Identical config means bit-identical results.

    The uniforms are drawn on up to DRAW_RANGES CPUs and reduced to int8
    transition codes, one byte per slot for both channels, plus one action
    byte per slot for random-uniform: H bytes per episode, or 2H. STEP_BLOCK
    episodes are then stepped together, slot by slot; see the module notes.
    Belief codes are stepped only for a PolicyField or myopic, which read
    them, and with collect_traces, which records them, for every policy.
    """
    E, H = cfg.episodes, cfg.horizon
    beta = discount.beta
    fixed = {"always-balanced": Action.BALANCED, "always-conservative": Action.CONSERVATIVE}
    reads = isinstance(policy, PolicyField) or policy == "myopic"
    random_actions = policy == "random-uniform"
    if not (reads or random_actions or policy in fixed):
        raise ParameterError(f"unknown policy {policy!r}; baselines: {', '.join(BASELINES)}")
    steps = reads or collect_traces     # whether belief codes are stepped
    if steps:
        tab, nxt, start = _belief_codes(cfg, ch)
        C1, C2 = tab[0].size, tab[1].size
    # Actions are carried as codes 4a, so that 4a + G indexes the reward of
    # action a in joint state G, and (4a + G) * C_i + code the next code.
    table = _action_table(policy, tab, econ).ravel() << 2 if reads else None
    reward = _reward_table(econ).ravel()
    pnext = _pair_moves()
    A = len(ACTION_PRIORITY)
    weights = [1.0]     # beta^t by repeated products, as the running sum uses
    for _ in range(H - 1):
        weights.append(weights[-1] * beta)
    wr = np.multiply.outer(weights, reward)     # wr[t] is weights[t] * reward

    total = np.zeros(E)
    counts = np.zeros(A, dtype=np.int64)
    if policy in fixed:
        acts = 4 * ACTION_PRIORITY.index(fixed[policy])
        counts[acts >> 2] = E * H
    if collect_traces:
        tr_states = np.empty((E, H, 2), dtype=np.int8)
        tr_beliefs = np.empty((E, H, 2))
        tr_actions = np.empty((E, H), dtype=np.int8)
        tr_rewards = np.empty((E, H))
        tr_cum = np.empty((E, H))

    for lo in range(0, E, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, E)
        pair, moves, draws = _draw_block(cfg.seed, lo, hi - lo, H, cfg.initial_belief, ch,
                                         random_actions)
        if steps:
            c1 = np.full(hi - lo, start[0], dtype=np.intp)
            c2 = np.full(hi - lo, start[1], dtype=np.intp)
        acc = total[lo:hi]
        for t in range(H):
            if table is not None:
                j = c1 * C2
                j += c2
                acts = table.take(j)
            elif random_actions:
                acts = draws[t]
            k = acts + pair
            acc += wr[t].take(k)
            if collect_traces:
                tr_states[lo:hi, t, 0] = pair >> 1
                tr_states[lo:hi, t, 1] = pair & 1
                tr_beliefs[lo:hi, t, 0] = tab[0].take(c1)
                tr_beliefs[lo:hi, t, 1] = tab[1].take(c2)
                tr_actions[lo:hi, t] = acts >> 2
                tr_rewards[lo:hi, t] = reward.take(k)
                tr_cum[lo:hi, t] = acc
            if steps:
                c1 += k * C1
                k *= C2
                c2 += k
                c1 = nxt[0].take(c1)
                c2 = nxt[1].take(c2)
            pair = pnext.take(moves[t] + pair)
            if table is not None:
                moves[t] = acts     # the slot's row is spent; it keeps its actions
        acted = moves if table is not None else draws     # None for a fixed action
        if acted is not None:
            counts += [np.count_nonzero(acted == 4 * a) for a in range(A)]

    mean = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(E)) if E > 1 else 0.0
    if value_scale is None:
        value_scale = max(econ.rh, 2.0 * econ.rl) / (1.0 - beta)
    bound = beta ** H * value_scale
    name = policy if isinstance(policy, str) else "grid-policy"
    summary = SimSummary(
        policy=name,
        episodes=E,
        horizon=H,
        seed=cfg.seed,
        mean=mean,
        se=se,
        action_freq={
            a: float(counts[k] / (E * H)) for k, a in enumerate(ACTION_PRIORITY)
        },
        truncation_bound=float(bound),
        truncation_ok=bool(bound <= 0.01 * value_scale),
    )
    if collect_traces:
        return summary, TraceBatch(tr_states, tr_beliefs, tr_actions, tr_rewards, tr_cum)
    return summary


def summary_to_dict(s):
    doc = asdict(s)
    doc["action_freq"] = {a.value: f for a, f in s.action_freq.items()}
    return doc


def save_summary(s, path):
    with open(path, "w") as fh:
        json.dump(summary_to_dict(s), fh, indent=2)
        fh.write("\n")


def _repr_table(values):
    """Sorted distinct bit patterns of values and float.__repr__ of each;
    told apart by bits, -0.0 keeps its sign."""
    bits = _unique(np.ascontiguousarray(values).view(np.uint64))
    return bits, list(map(float.__repr__, bits.view(np.float64).tolist()))


def write_traces_csv(batch, path):
    """Flat per-slot dump; large for big runs, so callers gate it on a flag.

    Beliefs and rewards take few distinct values, so each is formatted once
    per block of EPISODE_BLOCK episodes and looked up by bit pattern; only
    the running discounted total is formatted per slot. Rows end in \\r\\n,
    as csv.writer writes them.
    """
    E = batch.actions.shape[0]
    names = [a.value for a in ACTION_PRIORITY]
    with open(path, "w", newline="") as fh:
        fh.write("episode,t,g1,g2,b1,b2,action,reward,cum_discounted\r\n")
        for lo in range(0, E, EPISODE_BLOCK):
            hi = min(lo + EPISODE_BLOCK, E)
            bbits, beliefs = _repr_table(batch.beliefs[lo:hi])
            rbits, rewards = _repr_table(batch.rewards[lo:hi])
            for e in range(lo, hi):
                slots = zip(
                    batch.states[e].tolist(),
                    np.searchsorted(bbits, batch.beliefs[e].view(np.uint64)).tolist(),
                    batch.actions[e].tolist(),
                    np.searchsorted(rbits, batch.rewards[e].view(np.uint64)).tolist(),
                    batch.cum_disc[e].tolist(),
                )
                fh.write("".join(
                    f"{e},{t},{g1},{g2},{beliefs[b1]},{beliefs[b2]},"
                    f"{names[a]},{rewards[r]},{cum!r}\r\n"
                    for t, ((g1, g2), (b1, b2), a, r, cum) in enumerate(slots)
                ))
