"""The scalar Q probe behind every threshold bisection, bit for bit.

On the lattice it must equal action_value_grids; off the lattice it must
equal the one-point numpy Q functions it replaced (tests/loop_oracles.py).
The pinned digests were taken from the code before the probe existed, so
the thresholds it bisects leave every structure and sweep byte as it was.
"""

import hashlib

import numpy as np
import pytest

from gepower import BeliefGrid, ChannelParams, Discount, EconParams, SolverConfig, ValueField, solve
from gepower.cli import main
from gepower.dynamics import ACTION_PRIORITY, Belief, propagate
from gepower.solver import action_value_grids, q_probe

from loop_oracles import q_balanced, q_bet1, q_bet2, q_conservative

CH = ChannelParams(0.1, 0.9)
ECON_A = EconParams(3.0, 2.0, 1.2, 0.8)
ECON_B = EconParams(3.7, 2.0, 1.2, 0.8)


def _fields(n, beta, ch, econ):
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, n))
    solved = solve(SolverConfig(Discount(beta), 1e-6, 5000), ch, econ, BeliefGrid(n))
    return {
        "solved": solved.field,
        "random": ValueField(BeliefGrid(n), vals),
        "symmetric": ValueField(BeliefGrid(n), vals + vals.T),
    }


def _oracle(v, p1, p2, ch, econ, disc):
    b = Belief(p1, p2)
    return (
        q_balanced(v, b, ch, econ, disc),
        q_bet1(v, b, ch, econ, disc),
        q_bet2(v, b, ch, econ, disc),
        q_conservative(v, b, ch, disc),
    )


@pytest.mark.parametrize("beta", [0.9, 0.99])
@pytest.mark.parametrize("n", [2, 7, 22, 101])
def test_equals_grids_on_lattice(n, beta):
    disc = Discount(beta)
    for name, v in _fields(n, beta, CH, ECON_B).items():
        grids = action_value_grids(v, CH, ECON_B, disc)
        expect = np.stack([grids[a] for a in ACTION_PRIORITY], axis=-1)
        probe = q_probe(v, CH, ECON_B, disc)
        x = v.grid.points.tolist()
        got = np.array([[probe(p1, p2) for p2 in x] for p1 in x])
        assert np.array_equal(got, expect), name


def _exact_preimages(points, ch):
    """Beliefs p whose propagated belief T(p) is exactly a lattice point."""
    out = []
    for y in points.tolist():
        p = (y - ch.lambda0) / ch.alpha
        for q in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
            if 0.0 < q < 1.0 and propagate(float(q), ch) == y:
                out.append(float(q))
                break
    return out


@pytest.mark.parametrize("beta", [0.9, 0.99])
@pytest.mark.parametrize("n", [7, 22, 101])
@pytest.mark.parametrize("lam", [(0.1, 0.9), (0.13, 0.77), (0.25, 1.0)])
def test_equals_oracles_off_lattice(n, beta, lam):
    ch = ChannelParams(*lam)
    disc = Discount(beta)
    econ = ECON_A
    rng = np.random.default_rng(17 * n)
    special = [0.0, 1.0, ch.lambda0, ch.lambda1]
    preimages = _exact_preimages(BeliefGrid(n).points, ch)
    assert len(preimages) >= 2
    preimages = preimages[:: max(1, len(preimages) // 8)]
    coords = special + preimages + rng.uniform(size=12).tolist()
    for name, v in _fields(n, beta, ch, econ).items():
        probe = q_probe(v, ch, econ, disc)
        pairs = [(p1, p2) for p1 in coords for p2 in special + preimages[:3]]
        pairs += [tuple(pair) for pair in rng.uniform(size=(40, 2)).tolist()]
        for p1, p2 in pairs:
            got = probe(p1, p2)
            assert all(type(q) is float for q in got)
            assert np.array_equal(got, _oracle(v, p1, p2, ch, econ, disc)), (name, p1, p2)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    # sha256 of the files written before the bisections went through the
    # probe; structure.json carries th1, th2, rho1 and rho2 and the
    # contiguity list, solve_report.json the diagonal thresholds, and
    # sweep.csv both kinds of diagonal. The n=22 solves were re-pinned when
    # the solver's transition weights took the LP kernels' association
    # ((prob1 * prob2) * wx) * wy: lambda is off the lattice there, so
    # evaluation_steps and the th*_residual trailing digits moved.
    @pytest.mark.parametrize(
        "extra, structure, report",
        [
            ([], "a1d379d1185a441449869c8cf80aa36c11b64f0d228a8e4d7447202d140703b8",
             "a03a98d506c40b583704967dd7cf5678e452f73d88d21af2eb0dc7832b1ad719"),
            (["--rh", "3.7"], "67f8b0cdb9867b29ca180bf8dd9909231b6d11be037c13efe36bdd9df38c9d2b",
             "0a54f3fdcf2113bda05011d7f24f83410c60551ff97a0fe3bc0b64081cd42ec4"),
        ],
        ids=["one-threshold", "two-threshold"],
    )
    def test_solve_and_analyze(self, tmp_path, extra, structure, report):
        main(["solve", "--grid", "22", "--out", str(tmp_path)] + extra)
        main(["analyze", str(tmp_path / "value.json"), "--out", str(tmp_path)])
        assert _digest(tmp_path / "solve_report.json") == report
        assert _digest(tmp_path / "structure.json") == structure

    def test_sweep(self, tmp_path):
        main(["sweep", "--grid", "22", "--param", "rh_over_rl", "--start", "1.05",
              "--stop", "1.95", "--points", "4", "--out", str(tmp_path)])
        assert _digest(tmp_path / "sweep.csv") == (
            "70f33123620cd4679901462176652a21f33039868002e304854ef7c41d9e3747"
        )

    def test_sweep_changing_the_channel(self, tmp_path):
        # Every point has its own channel, so Q grids read from stencils
        # memoised under the wrong parameters would change these bytes.
        main(["sweep", "--grid", "41", "--param", "lambda0", "--start", "0.1",
              "--stop", "0.7", "--points", "4", "--out", str(tmp_path)])
        assert _digest(tmp_path / "sweep.csv") == (
            "170cd7522d4454efd1c7f32391af2726174a03b31da3b135c9098a6c8e687ff5"
        )

    def test_sweep_of_the_cost_ratio(self, tmp_path):
        # pinned before sweep points started from their predecessor's field;
        # its first point is two-threshold and the others one-threshold
        main(["sweep", "--grid", "22", "--param", "ch_over_cl", "--start", "1.05",
              "--stop", "1.95", "--points", "4", "--out", str(tmp_path)])
        assert _digest(tmp_path / "sweep.csv") == (
            "edc859aef311f4c4209fed32befec072c320a498c4d0a5593c4d0610bad5a8a7"
        )
