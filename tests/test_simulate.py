import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from loop_oracles import _select_actions, loop_episodes

from gepower import (
    BASELINES,
    Action,
    Belief,
    ChannelParams,
    Discount,
    EconParams,
    SimConfig,
    immediate_reward,
    run_episodes,
)
from gepower import simulate
from gepower.dynamics import (
    ACTION_PRIORITY,
    USES_CHANNEL,
    ParameterError,
    propagate,
    propagate_array,
)
from gepower.simulate import (
    EPISODE_BLOCK,
    STEP_BLOCK,
    _action_table,
    _belief_codes,
    _transition_code,
    save_summary,
    summary_to_dict,
    write_traces_csv,
)

CH = ChannelParams(0.1, 0.9)
ECON = EconParams(3.0, 2.0, 1.2, 0.8)
DISC = Discount(0.9)


def _never(*args):
    raise AssertionError("called where it must not be")


class TestStepChannels:
    def test_empirical_transition_frequencies(self):
        # one long vectorized draw per originating state; 3-sigma binomial bands
        rng = np.random.default_rng(123)
        steps = 10 ** 6
        from_good = rng.random(steps) < CH.lambda1
        from_bad = rng.random(steps) < CH.lambda0
        for hat, p in ((from_good.mean(), CH.lambda1), (from_bad.mean(), CH.lambda0)):
            sigma = math.sqrt(p * (1 - p) / steps)
            assert abs(hat - p) <= 3 * sigma


class TestRunEpisodes:
    def test_always_conservative_is_exactly_zero(self):
        cfg = SimConfig(episodes=500, horizon=50, seed=1, initial_belief=Belief(0.5, 0.5))
        s = run_episodes("always-conservative", cfg, CH, ECON, DISC)
        assert s.mean == 0.0 and s.se == 0.0
        assert s.action_freq[Action.CONSERVATIVE] == 1.0

    def test_identical_seed_identical_summary(self):
        cfg = SimConfig(episodes=300, horizon=40, seed=9, initial_belief=Belief(0.3, 0.8))
        a = run_episodes("myopic", cfg, CH, ECON, DISC)
        b = run_episodes("myopic", cfg, CH, ECON, DISC)
        assert a == b

    def test_seed_changes_summary(self):
        cfg1 = SimConfig(episodes=300, horizon=40, seed=9, initial_belief=Belief(0.3, 0.8))
        cfg2 = SimConfig(episodes=300, horizon=40, seed=10, initial_belief=Belief(0.3, 0.8))
        assert run_episodes("myopic", cfg1, CH, ECON, DISC).mean != run_episodes(
            "myopic", cfg2, CH, ECON, DISC
        ).mean

    def test_one_step_reward_matches_immediate_reward(self):
        # with horizon 1 and a fixed action the empirical mean estimates the
        # one-slot expected reward at the initial belief
        belief = Belief(0.35, 0.65)
        cfg = SimConfig(episodes=60000, horizon=1, seed=3, initial_belief=belief)
        s = run_episodes("always-balanced", cfg, CH, ECON, DISC)
        expect = immediate_reward(belief, Action.BALANCED, ECON)
        assert abs(s.mean - expect) <= 3 * s.se

    def test_grid_policy_tracks_value_function(self, solved_a, policy_a):
        cfg = SimConfig(episodes=4000, horizon=150, seed=11, initial_belief=Belief(0.5, 0.5))
        scale = float(solved_a.field.values.max())
        s = run_episodes(policy_a, cfg, CH, ECON, DISC, value_scale=scale)
        v = float(solved_a.field.values[50, 50])
        assert abs(s.mean - v) <= 3 * s.se + 0.02 * v
        assert s.truncation_ok

    def test_optimal_not_worse_than_myopic(self, policy_a):
        for start in (Belief(0.5, 0.5), Belief(0.2, 0.8), Belief(0.05, 0.05)):
            cfg = SimConfig(episodes=3000, horizon=120, seed=21, initial_belief=start)
            opt = run_episodes(policy_a, cfg, CH, ECON, DISC)
            myo = run_episodes("myopic", cfg, CH, ECON, DISC)
            assert opt.mean >= myo.mean - 3 * (opt.se + myo.se)

    def test_belief_calibration(self, policy_a):
        # empirical good-state frequency conditioned on the tracked belief
        # at a fixed slot stays inside a 3-sigma band
        cfg = SimConfig(episodes=4000, horizon=8, seed=17, initial_belief=Belief(0.5, 0.5))
        _, batch = run_episodes(policy_a, cfg, CH, ECON, DISC, collect_traces=True)
        t = 5
        beliefs = batch.beliefs[:, t, 0]
        states = batch.states[:, t, 0]
        for value in np.unique(np.round(beliefs, 12)):
            mask = np.isclose(beliefs, value)
            count = int(mask.sum())
            if count < 200:
                continue
            hat = states[mask].mean()
            sigma = math.sqrt(value * (1 - value) / count) if 0 < value < 1 else 0.0
            assert abs(hat - value) <= 3 * sigma + 1e-12

    def test_trace_reward_values_legal(self, policy_a):
        cfg = SimConfig(episodes=50, horizon=30, seed=5, initial_belief=Belief(0.4, 0.6))
        _, batch = run_episodes(policy_a, cfg, CH, ECON, DISC, collect_traces=True)
        bal, b1, b2, rest = (ACTION_PRIORITY.index(a) for a in ACTION_PRIORITY)
        full = {ECON.rh, -ECON.ch}
        half = {
            2 * ECON.rl,
            -2 * ECON.cl,
            ECON.rl - ECON.cl,
        }
        for e in range(50):
            for t in range(30):
                r = batch.rewards[e, t]
                a = batch.actions[e, t]
                if a == rest:
                    assert r == 0.0
                elif a in (b1, b2):
                    assert r in full
                else:
                    assert r in half

    def test_unknown_baseline_rejected(self, monkeypatch):
        # before any row of the stream is drawn
        monkeypatch.setattr(simulate, "_draw_block", _never)
        cfg = SimConfig(episodes=10, horizon=5, seed=0, initial_belief=Belief(0.5, 0.5))
        with pytest.raises(ParameterError, match="unknown policy"):
            run_episodes("sometimes-balanced", cfg, CH, ECON, DISC)

    def test_truncation_bound_reported(self):
        cfg = SimConfig(episodes=10, horizon=10, seed=0, initial_belief=Belief(0.5, 0.5))
        for beta in (0.9, 0.0):
            s = run_episodes("always-balanced", cfg, CH, ECON, Discount(beta))
            scale = max(ECON.rh, 2 * ECON.rl) / (1 - beta)
            assert s.truncation_bound == pytest.approx(beta ** 10 * scale)
            # 0.9^10 is far above one percent; at beta = 0 only the first slot counts
            assert s.truncation_ok == (beta == 0.0)


class TestEpisodeStreams:
    def test_stream_depends_only_on_seed_and_index(self):
        # episode k reads row k of one stream, so with the same seed and
        # horizon the first episodes of a longer run are the shorter run
        def run(episodes):
            cfg = SimConfig(episodes=episodes, horizon=10, seed=99,
                            initial_belief=Belief(0.5, 0.5))
            return run_episodes("random-uniform", cfg, CH, ECON, DISC, collect_traces=True)[1]

        big, small = run(8), run(3)
        np.testing.assert_array_equal(big.states[:3], small.states)
        np.testing.assert_array_equal(big.actions[:3], small.actions)

    def test_channel_paths_shared_across_policies(self):
        # identical seeds give identical hidden channel trajectories no
        # matter which actions the policy takes
        cfg = SimConfig(episodes=40, horizon=25, seed=31, initial_belief=Belief(0.5, 0.5))
        _, a = run_episodes("always-balanced", cfg, CH, ECON, DISC, collect_traces=True)
        _, b = run_episodes("always-conservative", cfg, CH, ECON, DISC, collect_traces=True)
        np.testing.assert_array_equal(a.states, b.states)


class TestLoopOracle:
    POLICIES = ("grid", "myopic", "always-balanced", "always-conservative", "random-uniform")

    @staticmethod
    def _policy(name, policy_a):
        return policy_a if name == "grid" else name

    # (DRAW_CHUNK, STEP_BLOCK) pairs
    SEAMS = [
        (3, 7),     # chunk seams inside step blocks, a partial last block
        (7, 3),     # a chunk larger than the step block
        (10, 13),   # draw ranges that are not multiples of their chunks
    ]

    @staticmethod
    def _check(policy, episodes, horizon=20, seed=8):
        cfg = SimConfig(
            episodes=episodes, horizon=horizon, seed=seed, initial_belief=Belief(0.3, 0.65)
        )
        summary, batch = run_episodes(policy, cfg, CH, ECON, DISC, collect_traces=True)
        ref_summary, ref_batch = loop_episodes(policy, cfg, CH, ECON, DISC)
        assert summary == ref_summary
        assert run_episodes(policy, cfg, CH, ECON, DISC) == ref_summary
        for field in ("states", "beliefs", "actions", "rewards", "cum_disc"):
            got, want = getattr(batch, field), getattr(ref_batch, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)

    @pytest.mark.parametrize("name", POLICIES)
    def test_matches_per_slot_loop(self, name, policy_a):
        # many draw chunks at the real sizes
        self._check(self._policy(name, policy_a), EPISODE_BLOCK + 17)

    @pytest.mark.parametrize("name", POLICIES)
    def test_matches_per_slot_loop_with_shared_codes(self, name, policy_a):
        # past ~150 slots the late terms of the three belief chains are equal
        # floats and share codes
        self._check(self._policy(name, policy_a), 40, horizon=250)

    @pytest.mark.parametrize("chunk, block", SEAMS)
    @pytest.mark.parametrize("name", POLICIES)
    def test_matches_per_slot_loop_across_seams(self, name, chunk, block, policy_a,
                                                monkeypatch):
        monkeypatch.setattr(simulate, "DRAW_CHUNK", chunk)
        monkeypatch.setattr(simulate, "STEP_BLOCK", block)
        self._check(self._policy(name, policy_a), 17)

    @pytest.mark.parametrize("seed", [0, 2 ** 70])   # 2**70 goes through SeedSequence
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("chunk, block, episodes", [
        *((chunk, block, 17) for chunk, block in SEAMS),
        (simulate.DRAW_CHUNK, simulate.STEP_BLOCK, EPISODE_BLOCK + 17),
    ])
    @pytest.mark.parametrize("name", POLICIES)
    def test_matches_per_slot_loop_at_any_worker_count(self, name, chunk, block, episodes,
                                                       cpus, seed, policy_a, monkeypatch):
        # each half of a block jumps its own generator to its first row
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(simulate, "DRAW_CHUNK", chunk)
        monkeypatch.setattr(simulate, "STEP_BLOCK", block)
        self._check(self._policy(name, policy_a), episodes, seed=seed)

    @pytest.mark.parametrize("k", [100, EPISODE_BLOCK + 5])
    def test_prefix_of_larger_run(self, k, policy_a):
        big = SimConfig(episodes=EPISODE_BLOCK + 17, horizon=12, seed=6,
                        initial_belief=Belief(0.5, 0.5))
        small = SimConfig(episodes=k, horizon=12, seed=6, initial_belief=Belief(0.5, 0.5))
        _, a = run_episodes(policy_a, big, CH, ECON, DISC, collect_traces=True)
        _, b = run_episodes(policy_a, small, CH, ECON, DISC, collect_traces=True)
        for field in ("states", "beliefs", "actions", "rewards", "cum_disc"):
            np.testing.assert_array_equal(getattr(a, field)[:k], getattr(b, field), err_msg=field)


class TestTransitionCode:
    @pytest.mark.parametrize("ch", [CH, ChannelParams(0.3, 0.35), ChannelParams(0.0, 1.0)])
    def test_next_state_is_the_threshold_draw(self, ch):
        # (g + code) >> 1 must equal u < lambda_g exactly, also at the
        # thresholds themselves and the doubles next to them
        lam = np.array([ch.lambda0, ch.lambda1])
        u = np.concatenate([
            lam, np.nextafter(lam, 0.0), np.nextafter(lam, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        code = _transition_code(u, ch)
        assert code.dtype == np.int8
        for g in (0, 1):
            np.testing.assert_array_equal((g + code) >> 1, (u < lam[g]).astype(np.int8))


class TestMemory:
    @pytest.mark.parametrize("name", ["random-uniform", "myopic"])
    @pytest.mark.parametrize("horizon", [50, 400])
    def test_peak_below_one_block_of_uniforms(self, horizon, name, monkeypatch):
        # the bound is 2048 episodes' rows of uniforms plus the action table,
        # what stepping over whole rows held; the int8 codes of a run over two
        # step blocks must take less at every horizon, drawn whole or in halves
        cfg = SimConfig(episodes=STEP_BLOCK + 17, horizon=horizon, seed=4,
                        initial_belief=Belief(0.5, 0.5))
        codes = 3 * (horizon + 1)
        bound = 2048 * (2 + 3 * horizon) * 8 + codes ** 2
        for second in (False, True):
            monkeypatch.setattr(simulate, "_second_cpu", lambda: second)
            tracemalloc.start()
            try:
                run_episodes(name, cfg, CH, ECON, DISC)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"second CPU {second}: {peak} >= {bound}"

    def test_table_does_not_grow_with_the_horizon(self):
        # one byte per pair of the 3(H+1) chain terms would be 36 MB here;
        # myopic, as the fixed baselines build no table
        cfg = SimConfig(episodes=10, horizon=2000, seed=0, initial_belief=Belief(0.5, 0.5))
        tracemalloc.start()
        try:
            run_episodes("myopic", cfg, CH, ECON, DISC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


class TestDrawThreads:
    """A block's second half is drawn on a thread that is joined before
    run_episodes returns or raises."""

    @staticmethod
    def _run(episodes, name="myopic"):
        cfg = SimConfig(episodes=episodes, horizon=5, seed=3, initial_belief=Belief(0.5, 0.5))
        return run_episodes(name, cfg, CH, ECON, DISC)

    @pytest.mark.parametrize("cpus, episodes, started", [
        (1, STEP_BLOCK + 17, 0),
        (2, 1, 0),
        (2, simulate.DRAW_CHUNK // 2, 0),           # drawn whole, one buffer
        (2, simulate.DRAW_CHUNK // 2 + 1, 1),
        (3, STEP_BLOCK + 17, 1),                    # the 17-episode block is drawn whole
        (64, 1000, 1),                              # two halves on any mask of 2 or more
        (256, 1000, 1),
    ])
    def test_threads_started_and_joined(self, cpus, episodes, started, monkeypatch):
        threads = []

        class Counted(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(threading, "Thread", Counted)
        before = threading.active_count()
        self._run(episodes)
        assert len(threads) == started
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in threads)

    @pytest.mark.parametrize("where", ["worker", "main"])
    def test_error_raised_after_every_thread_joined(self, where, monkeypatch):
        draw = simulate._draw_range

        def exhausted(*args):
            in_main = threading.current_thread() is threading.main_thread()
            if in_main == (where == "main"):
                raise MemoryError(where)
            draw(*args)

        monkeypatch.setattr(simulate, "_second_cpu", lambda: True)
        monkeypatch.setattr(simulate, "_draw_range", exhausted)
        before = threading.active_count()
        with pytest.raises(MemoryError, match=where):
            self._run(1000)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64, 256])
    def test_second_cpu_follows_the_affinity_mask(self, cpus, monkeypatch):
        # the mask when the platform has one, else the machine's CPU count
        if hasattr(os, "sched_getaffinity"):
            assert simulate._second_cpu() == (len(os.sched_getaffinity(0)) >= 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1 if cpus >= 2 else 2)
        assert simulate._second_cpu() == (cpus >= 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert simulate._second_cpu() == (cpus >= 2)
        monkeypatch.setattr(os, "cpu_count", lambda: None)     # count unknown
        assert not simulate._second_cpu()


class TestBeliefCodes:
    """One code per distinct belief of each channel, against chains built
    with the scalar propagate."""

    @pytest.mark.parametrize("horizon", [1, 12, 250])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.65), (0.5, 0.5), (0.0, 1.0)])
    def test_codes_and_transitions(self, p1, p2, horizon):
        cfg = SimConfig(episodes=1, horizon=horizon, seed=0, initial_belief=Belief(p1, p2))
        tab, nxt, start = _belief_codes(cfg, CH)
        for i, b0 in enumerate((p1, p2)):
            chains = []
            for b in (CH.lambda0, CH.lambda1, b0):
                chain = [b]
                for _ in range(horizon):
                    chain.append(propagate(chain[-1], CH))
                chains.append(chain)
            assert tab[i].tolist() == sorted({b for chain in chains for b in chain})
            code = {b: c for c, b in enumerate(tab[i].tolist())}
            assert start[i] == code[b0]
            C = tab[i].size
            for k, a in enumerate(ACTION_PRIORITY):
                for G in range(4):
                    g = (G >> 1, G & 1)[i]
                    row = nxt[i][(4 * k + G) * C:(4 * k + G + 1) * C]
                    observed = (CH.lambda0, CH.lambda1)[g]
                    # beliefs held before the last slot, the ones stepped from
                    for b in {b for chain in chains for b in chain[:-1]}:
                        want = observed if USES_CHANNEL[a][i] else propagate(b, CH)
                        assert tab[i][row[code[b]]] == want

    @pytest.mark.parametrize("horizon", [1, 12, 250])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.65), (0.5, 0.5), (0.0, 1.0)])
    def test_drift_successor_is_the_propagated_belief(self, p1, p2, horizon):
        # successors are read off the chains: every code held before step H
        # must lead to the code of propagate_array of its belief
        cfg = SimConfig(episodes=1, horizon=horizon, seed=0, initial_belief=Belief(p1, p2))
        tab, nxt, _ = _belief_codes(cfg, CH)
        rest = ACTION_PRIORITY.index(Action.CONSERVATIVE)     # observes neither channel
        for i, b0 in enumerate((p1, p2)):
            bits, C = tab[i].view(np.uint64), tab[i].size
            held = [np.array([CH.lambda0, CH.lambda1, b0])]
            for _ in range(horizon - 1):
                held.append(propagate_array(held[-1], CH))
            held = np.concatenate(held).view(np.uint64)
            after = propagate_array(held.view(np.float64), CH).view(np.uint64)
            code, want = np.searchsorted(bits, held), np.searchsorted(bits, after)
            np.testing.assert_array_equal(bits[code], held)
            np.testing.assert_array_equal(bits[want], after)
            for G in range(4):
                np.testing.assert_array_equal(nxt[i][(4 * rest + G) * C + code], want)


class TestActionTable:
    """Each table policy's table at every belief-code pair, including the
    pairs no simulated episode visits, against the per-slot oracle; the
    policies that read no belief build neither codes nor a table."""

    BELIEF_FREE = ("always-balanced", "always-conservative", "random-uniform")

    @staticmethod
    def _table(policy, horizon, b0):
        cfg = SimConfig(episodes=1, horizon=horizon, seed=0, initial_belief=b0)
        tab, _, _ = _belief_codes(cfg, CH)
        return tab, _action_table(policy, tab, ECON)

    @pytest.mark.parametrize("horizon", [1, 12])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.65), (0.5, 0.5)])
    @pytest.mark.parametrize("name", ["grid", "myopic"])
    def test_deterministic_policy_table(self, name, p1, p2, horizon, policy_a):
        policy = TestLoopOracle._policy(name, policy_a)
        tab, table = self._table(policy, horizon, Belief(p1, p2))
        assert table.shape == (tab[0].size, tab[1].size)
        assert table.dtype == np.int8
        c1, c2 = np.meshgrid(np.arange(tab[0].size), np.arange(tab[1].size), indexing="ij")
        beliefs = np.column_stack([tab[0][c1.ravel()], tab[1][c2.ravel()]])
        want = _select_actions(policy, beliefs, ECON, None)
        np.testing.assert_array_equal(table.ravel(), want)

    @staticmethod
    def _cfg():
        return SimConfig(episodes=40, horizon=25, seed=3, initial_belief=Belief(0.3, 0.65))

    @pytest.mark.parametrize("name", BELIEF_FREE)
    def test_belief_free_baselines_build_no_codes(self, name, monkeypatch):
        want = loop_episodes(name, self._cfg(), CH, ECON, DISC)[0]
        monkeypatch.setattr(simulate, "_belief_codes", _never)
        monkeypatch.setattr(simulate, "_action_table", _never)
        assert run_episodes(name, self._cfg(), CH, ECON, DISC) == want

    @pytest.mark.parametrize("name", BELIEF_FREE)
    def test_belief_free_traces_record_beliefs(self, name, monkeypatch):
        # traces hold beliefs, so the codes are built and stepped, but no table
        want, ref_batch = loop_episodes(name, self._cfg(), CH, ECON, DISC)
        codes, built = simulate._belief_codes, []
        monkeypatch.setattr(simulate, "_belief_codes", lambda *a: built.append(a) or codes(*a))
        monkeypatch.setattr(simulate, "_action_table", _never)
        summary, batch = run_episodes(name, self._cfg(), CH, ECON, DISC, collect_traces=True)
        assert len(built) == 1 and summary == want
        np.testing.assert_array_equal(batch.beliefs, ref_batch.beliefs)


class TestLargeSeed:
    SEED = 2 ** 70

    def test_sim_config_path(self):
        def mean(seed):
            cfg = SimConfig(episodes=200, horizon=10, seed=seed, initial_belief=Belief(0.5, 0.5))
            return run_episodes("myopic", cfg, CH, ECON, DISC).mean

        big = mean(self.SEED)
        assert big != mean(self.SEED + 1)
        # a seed wrapped to 64 bits would collide with seed 0
        assert big != mean(self.SEED % 2 ** 64)

    def test_cli_path(self, tmp_path):
        from gepower.cli import EXIT_OK, main

        means = []
        for seed in (self.SEED, self.SEED + 1):
            out = tmp_path / str(seed)
            code = main(["simulate", "--baseline", "myopic", "--episodes", "50",
                         "--horizon", "10", "--seed", str(seed), "--out", str(out)])
            assert code == EXIT_OK
            doc = json.loads((out / "sim_summary.json").read_text())
            assert doc["seed"] == seed
            means.append(doc["mean"])
        assert means[0] != means[1]


class TestPinnedSummaries:
    """sha256 of sim_summary.json for small CLI runs, so that any change of
    the random stream or of the stepping shows."""

    RUN = ["--episodes", "300", "--horizon", "20", "--seed", "5"]
    # STEP_BLOCK + 17 episodes, so the run crosses a step-block seam
    SEAM_RUN = ["--episodes", "10257", "--horizon", "20", "--seed", "5"]
    DIGESTS = {
        "grid-policy": "1f1e42720a6ef9f815600eed29ccc10889166d7aae4557461f1cd9d92785a7f4",
        "grid-policy-seam": "f3b91548a8130d24befdcde89e07738a74fce7fb5fd8e4cb4c0b25d507405872",
        "myopic": "d5dc551d427f44fa93cb786750c98fb1441b249f3995966c3e575ca8420028dc",
        "always-balanced": "cc670de9b3dd3c0ea8b62246f0ae1b51e3fc4959696d4045c24e0452fc195785",
        "always-conservative": "68d52c39d28111e5cbd7e790fd682f8981a10b9b2a8adaf9859202d8c274cc27",
        "random-uniform": "2e3096d3dfd72c0fe06000f9df164e4adc04199fa89e8a2f0e4f247d3e56973c",
        "myopic-seam": "73865155acd7d1a00efa494b415926685b2e9d159cc4866449c48dc2498ee6e8",
        "always-balanced-seam": "26c2fa24ca8852ed13c0fca25177c41fadb506a58242e890ee28c157dfd5d49d",
        "always-conservative-seam":
            "8cd57857010c92541115572f008d393c28b8b218c6a6e91a904acd15cce86ef7",
        "random-uniform-seam": "4ec91f5d81b7b0b2609119a233208156510152671081f2b4bea82592baa938a4",
    }

    @staticmethod
    def _digest(path):
        return hashlib.sha256((path / "sim_summary.json").read_bytes()).hexdigest()

    def _check_grid_policy(self, key, run, tmp_path):
        from gepower.cli import EXIT_OK, main

        assert main(["solve", "--grid", "11", "--out", str(tmp_path)]) == EXIT_OK
        source = [str(tmp_path / "value.json")]
        assert main(["simulate"] + source + run + ["--out", str(tmp_path)]) == EXIT_OK
        assert self._digest(tmp_path) == self.DIGESTS[key]

    def test_grid_policy(self, tmp_path):
        self._check_grid_policy("grid-policy", self.RUN, tmp_path)

    def test_grid_policy_across_step_blocks(self, tmp_path):
        assert STEP_BLOCK < int(self.SEAM_RUN[1]) < 2 * STEP_BLOCK
        self._check_grid_policy("grid-policy-seam", self.SEAM_RUN, tmp_path)

    def _check_baseline(self, key, name, run, tmp_path):
        from gepower.cli import EXIT_OK, main

        source = ["--baseline", name]
        assert main(["simulate"] + source + run + ["--out", str(tmp_path)]) == EXIT_OK
        assert self._digest(tmp_path) == self.DIGESTS[key]

    @pytest.mark.parametrize("name", BASELINES)
    def test_baselines(self, name, tmp_path):
        self._check_baseline(name, name, self.RUN, tmp_path)

    @pytest.mark.parametrize("name", BASELINES)
    def test_baselines_across_step_blocks(self, name, tmp_path):
        # a table policy, its action draws and a fixed action are each
        # counted once per step block
        self._check_baseline(f"{name}-seam", name, self.SEAM_RUN, tmp_path)


class TestPinnedLongRun:
    """sha256 of sim_summary.json and traces.csv, and the stdout line, of runs
    long enough that the belief chains' late terms share codes; pinned
    before they did."""

    RUN = ["--episodes", "30", "--horizon", "250", "--seed", "2", "--p1", "0.3",
           "--p2", "0.65", "--dump-traces"]
    PINS = {
        "grid-policy": (
            "d6c3d9d34b1e29e39117e3b8b69cb59aac3a98fb815f9d8c65c8755e6424b4d6",
            "39c88b9c793d76466af8e4ffe2198a279de640689ee03e0d1d36e788247d54a8",
            "mean 17.747537 (se 2.039244), truncation bound 9.652e-11",
        ),
        "myopic": (
            "f246038ba3bfe80a44f795f83d27d5e689f591cbd0f7cc7894048dc520150553",
            "1c67dd16eaa56494d5361d7156f3337a4ef56d39e5ac4d548bf9686ca66ef13c",
            "mean 16.430198 (se 1.734645), truncation bound 1.454e-10",
        ),
        "always-balanced": (
            "7b5a4c9e31e443c4a80999d9474e0e0cddb40f291045ffddb3fac298506508c1",
            "115cde119003a59d4c9cd80526950d511b620ba9cb16e5f595fc7b14345e26e2",
            "mean 12.187762 (se 2.232494), truncation bound 1.454e-10",
        ),
        "always-conservative": (
            "a14705bd7b646f6ffa088d77d9e163f34dad5bb151c069a40d610003f04fc2fb",
            "251a2ec4eb4889f9673edf8f250e60c11269066ce8b816849707cea802b2d378",
            "mean 0.000000 (se 0.000000), truncation bound 1.454e-10",
        ),
        "random-uniform": (
            "8686029f72d8ae8baf0565a6b2b2c9f3d61429461508d359362a4e75a35942a0",
            "1cbac6d7a4a0c0c2b6c4de962362e292719d4802209f6c8baa10236bd6ccfcd0",
            "mean 7.539468 (se 1.407385), truncation bound 1.454e-10",
        ),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_files_and_stdout(self, name, tmp_path, capsys):
        from gepower.cli import EXIT_OK, main

        if name == "grid-policy":
            assert main(["solve", "--grid", "11", "--out", str(tmp_path)]) == EXIT_OK
            source = [str(tmp_path / "value.json")]
        else:
            source = ["--baseline", name]
        capsys.readouterr()
        assert main(["simulate"] + source + self.RUN + ["--out", str(tmp_path)]) == EXIT_OK
        summary, traces, line = self.PINS[name]
        assert capsys.readouterr().out == f"{name}: {line}\n"
        for file, digest in (("sim_summary.json", summary), ("traces.csv", traces)):
            assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file


class TestSummaryOutput:
    def test_summary_serialization(self, tmp_path):
        cfg = SimConfig(episodes=20, horizon=5, seed=1, initial_belief=Belief(0.5, 0.5))
        s = run_episodes("random-uniform", cfg, CH, ECON, DISC)
        doc = summary_to_dict(s)
        assert set(doc["action_freq"]) == {a.value for a in Action}
        assert doc["policy"] == "random-uniform"
        path1 = tmp_path / "s1.json"
        path2 = tmp_path / "s2.json"
        save_summary(s, path1)
        save_summary(run_episodes("random-uniform", cfg, CH, ECON, DISC), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_trace_csv(self, tmp_path):
        cfg = SimConfig(episodes=4, horizon=3, seed=1, initial_belief=Belief(0.5, 0.5))
        _, batch = run_episodes("myopic", cfg, CH, ECON, DISC, collect_traces=True)
        path = tmp_path / "traces.csv"
        write_traces_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("episode,t,")
        assert len(lines) == 1 + 4 * 3
