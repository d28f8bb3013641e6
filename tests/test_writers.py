"""The table-driven artifact writers against the per-point loops they
replaced (tests/loop_oracles.py): policy.csv, policy.ppm, value.json and
traces.csv must come out byte for byte the same. value.json's reader
against one json.load of the file."""

import csv
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from loop_oracles import (
    json_load_value_field,
    loop_policy_csv,
    loop_policy_ppm,
    loop_traces_csv,
    loop_value_field,
)

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
from gepower.cli import EXIT_IO, EXIT_OK, EXIT_VIOLATIONS, main
from gepower.dynamics import ACTION_PRIORITY
from gepower.policy import export_policy_csv, export_policy_ppm
from gepower.simulate import EPISODE_BLOCK, write_traces_csv
from gepower.solver import SolveResult, load_value_field, save_value_field

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
        # orjson and Python write the same digits but not the same exponent
        # form outside [1e-4, 1e16), so each magnitude class sits beside
        # both edges, with either sign.
        grid = BeliefGrid(7)
        values = np.linspace(-3.0, 40.0, 49).reshape(7, 7)
        edges = [5e-324, 1e-07, 1e-05, 9.999999999999999e-05, 1e-4, 0.00025,
                 9999999999999998.0, 1e16, 1.7976931348623157e308]
        values.flat[:len(edges) * 2 + 4] = [-0.0, 0.0, 0.1 + 0.2, -1.0 / 3.0] + edges + [
            -v for v in edges]
        result = SolveResult(ValueField(grid, values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )
        assert (
            '"values": [-0.0, 0.0, 0.30000000000000004, -0.3333333333333333, 5e-324, 1e-07, '
            "1e-05, 9.999999999999999e-05, 0.0001, 0.00025, 9999999999999998.0, 1e+16, "
            "1.7976931348623157e+308, -5e-324, "
        ) in (tmp_path / "new").read_text()

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

    # Sizes either side of one and two of the 16-row blocks the writer
    # formats at a time, and of 64 rows. Each block starts and ends with a
    # value that takes float.__repr__.
    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 64, 65])
    def test_matches_loop_across_block_edges(self, n, tmp_path):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, n))
        values = values + values.T
        values[n - 1, 3] = 0.5
        starts = np.arange(0, n * n, 16 * n)
        values.flat[starts] = 1e-7
        values.flat[np.minimum(starts + 16 * n, n * n) - 1] = -3e16
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )

    def test_holds_far_less_than_every_string(self, tmp_path):
        # At n=201 the field is 0.32 MB and the writer holds one 16-row
        # block's text at a time (a 0.22 MB peak); a writer that held all n^2
        # strings at once would peak near 4.7 MB.
        n = 201
        values = np.random.default_rng(n).random((n, n))
        values = values + values.T
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        tracemalloc.start()
        try:
            save_value_field(tmp_path / "value.json", result, CH, ECON_A, DISC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _outcome(load, path):
    """What load makes of the file at path: the field's bits and the rest of
    the document, or the exception's type and message."""
    try:
        result, ch, econ, discount = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return result.field.values.tobytes(), result.iterations, result.residual, ch, econ, discount


def _first_value(literal):
    return lambda data: re.sub(rb'"values": \[[^,]+', b'"values": [' + literal, data, count=1)


def _residual(literal):
    return lambda data: re.sub(rb'"residual": [^,]+', b'"residual": ' + literal, data, count=1)


def _values_on_lines(newline):
    """One value a line, then a stray byte after the document."""
    def change(data):
        head, values = data.split(b'"values": ')
        return head + b'"values": ' + values.replace(b", ", b"," + newline) + b"x"
    return change


# Edits of a written value.json, and whether orjson rejects the result, so
# that json decides it. The line breaks place json's errors through the text
# layer's newline translation.
READER_EDITS = {
    "as-written": (lambda data: data, False),
    "residual-nan": (_residual(b"NaN"), True),
    "residual-infinity": (_residual(b"Infinity"), True),
    "values-1e400": (_first_value(b"1e400"), True),
    "values-below-int64": (_first_value(b"-9223372036854775809"), False),
    "values-above-uint64": (_first_value(b"18446744073709551617"), False),
    "not-utf8": (lambda data: data.replace(b'"layout": "', b'"layout": "\xff'), True),
    "bom": (lambda data: b"\xef\xbb\xbf" + data, True),
    "lone-surrogate": (lambda data: data.replace(b'"layout": "', b'"layout": "\\ud800'), True),
    "crlf-extra-data": (_values_on_lines(b"\r\n"), True),
    "cr-extra-data": (_values_on_lines(b"\r"), True),
}


class TestValueReader:
    @pytest.fixture()
    def written(self, tmp_path):
        values = np.linspace(0.5, 4.5, 9).reshape(3, 3)
        result = SolveResult(ValueField(BeliefGrid(3), values), 3, 1e-9, 9e-9)
        path = tmp_path / "value.json"
        save_value_field(path, result, CH, ECON_A, DISC)
        return path

    def test_round_trip_is_bit_exact(self, tmp_path):
        n = 23
        rng = np.random.default_rng(n)
        values = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-9, 18, (n, n))
        values.flat[:5] = [0.0, -0.0, 5e-324, 1e-4, -1.7976931348623157e308]
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        path = tmp_path / "value.json"
        save_value_field(path, result, CH, ECON_A, DISC)
        loaded, ch, econ, discount = load_value_field(path)
        assert loaded.field.values.tobytes() == result.field.values.tobytes()
        assert (loaded.iterations, loaded.residual, ch, econ, discount) == (
            3, 1e-300, CH, ECON_A, DISC)

    def test_round_trip_of_solved_field(self, solved, tmp_path):
        path = tmp_path / "value.json"
        save_value_field(path, solved, CH, ECON_A, DISC)
        loaded = load_value_field(path)[0]
        assert loaded.field.values.tobytes() == solved.field.values.tobytes()

    @pytest.mark.parametrize("edit", sorted(READER_EDITS))
    def test_matches_json(self, edit, written):
        change, rejected = READER_EDITS[edit]
        data = change(written.read_bytes())
        written.write_bytes(data)
        if rejected:
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(data)
        assert _outcome(load_value_field, written) == _outcome(json_load_value_field, written)

    # orjson reads an integer literal outside [-2**63, 2**64) as the nearest
    # double; json keeps it exact. Only a count can tell them apart.
    def test_integer_beyond_64_bits_reads_as_a_float(self, written):
        data = written.read_bytes()
        written.write_bytes(re.sub(rb'"n": \d+', b'"n": 18446744073709551617', data))
        assert _outcome(load_value_field, written)[1].endswith(
            f"expected {2 ** 128} values, found 9")
        assert _outcome(json_load_value_field, written)[1].endswith(
            f"expected {(2 ** 64 + 1) ** 2} values, found 9")
        written.write_bytes(re.sub(rb'"iterations": \d+', b'"iterations": 18446744073709551617',
                                   data))
        assert load_value_field(written)[0].iterations == 2 ** 64
        assert json_load_value_field(written)[0].iterations == 2 ** 64 + 1


# Lattices either side of 150 points a side, and two well above it.
LARGE_SIZES = [150, 151, 201, 401]


@pytest.fixture(scope="module", params=LARGE_SIZES)
def solved_large(request):
    return solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, BeliefGrid(request.param))


def _analyze(value, out, *flags):
    code = main(["analyze", str(value), "--out", str(out), *flags])
    assert code in (EXIT_OK, EXIT_VIOLATIONS)
    return out


def _peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeWriters:
    """value.json, policy.csv and policy.ppm of large lattices come out byte
    for byte as the per-point loops write them, all in one process."""

    def test_value_json_matches_loop(self, solved_large, forks, tmp_path):
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, solved_large, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, solved_large, CH, ECON_A, DISC),
        )
        assert forks == []

    @pytest.mark.parametrize("tie_tol", [None, 0.5])
    def test_policy_files_match_loop(self, solved_large, tie_tol, forks, tmp_path):
        value = tmp_path / "value.json"
        loop_value_field(value, solved_large, CH, ECON_A, DISC)
        flags = [] if tie_tol is None else ["--tie-tol", str(tie_tol)]
        out = _analyze(value, tmp_path / "analysis", *flags)
        assert forks == []
        policy = extract_policy(solved_large.field, CH, ECON_A, DISC, tie_tol)
        if tie_tol is not None:
            assert set(np.unique(policy.primary)) == set(range(len(ACTION_PRIORITY)))
        loop_policy_csv(policy, tmp_path / "old.csv")
        loop_policy_ppm(policy, tmp_path / "old.ppm")
        assert (out / "policy.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (out / "policy.ppm").read_bytes() == (tmp_path / "old.ppm").read_bytes()

    @pytest.mark.parametrize("n", [150, 151, 201])
    def test_value_json_matches_loop_on_mirror_pairs_across_the_field(self, n, tmp_path):
        # A -0.0/0.0 pair and an unequal mirrored pair each sit in the top
        # rows, on both sides of row h = n - floor(n / sqrt(2)) and in the
        # bottom rows, so a writer that copies a mirrored string without its
        # bit check writes one of them wrong.
        h = n - int(n / math.sqrt(2))
        values = np.random.default_rng(n).normal(size=(n, n))
        values = values + values.T
        zeros = [(1, h // 2), (h - 1, h), (h + 2, n - 2)]
        unequal = [(2, h // 2 + 1), (h // 2, n - 3), (n - 5, h + 1)]
        for i, j in zeros:
            values[i, j], values[j, i] = 0.0, -0.0
        for i, j in unequal:
            values[i, j], values[j, i] = 0.1 + 0.2, 0.3
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        _same_bytes(
            tmp_path,
            lambda path: save_value_field(path, result, CH, ECON_A, DISC),
            lambda path: loop_value_field(path, result, CH, ECON_A, DISC),
        )
        written = json.loads((tmp_path / "new").read_text())["values"]
        for i, j in zeros + unequal:
            assert [written[i * n + j], written[j * n + i]] == [values[i, j], values[j, i]]
        assert all(math.copysign(1.0, written[j * n + i]) < 0 for i, j in zeros)

    def test_value_json_peak_at_401(self, tmp_path):
        # Each 16-row block's text lives only while it is written: 0.56 MB
        # at n=401. The text of the whole field made at once is 3.2 MB.
        n = 401
        values = np.random.default_rng(n).random((n, n))
        values = values + values.T
        result = SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300)
        peak = _peak(lambda: save_value_field(tmp_path / "value.json", result, CH, ECON_A, DISC))
        assert peak < 4_000_000

    def test_value_json_read_peak_at_401(self, tmp_path):
        # The file's 3.2 MB of bytes and the parsed list (5.1 MB) meet while
        # orjson parses: 8.35 MB. The bytes are gone before the field's
        # arrays are made; kept alive, they would lift the peak to 11.1 MB.
        # One json.load of the text peaks at 8.5 MB.
        n = 401
        values = np.random.default_rng(n).random((n, n))
        values = values + values.T
        path = tmp_path / "value.json"
        save_value_field(path, SolveResult(ValueField(BeliefGrid(n), values), 3, 1e-300, 9e-300),
                         CH, ECON_A, DISC)
        peak = _peak(lambda: load_value_field(path))
        assert peak <= _peak(lambda: json_load_value_field(path))
        assert peak < 8_500_000

    @pytest.mark.parametrize("solved_large", [401], indirect=True)
    @pytest.mark.parametrize("tie_tol", [None, 0.5])
    def test_policy_writers_peak_at_401(self, solved_large, tie_tol, tmp_path):
        # The run writers find their runs one row at a time: 0.10-0.11 MB for
        # policy.csv and 0.03 MB for policy.ppm at n=401. Runs found over the
        # whole lattice at once would peak at about 1.0 and 0.18 MB.
        policy = extract_policy(solved_large.field, CH, ECON_A, DISC, tie_tol)
        assert _peak(lambda: export_policy_csv(policy, tmp_path / "policy.csv")) < 250_000
        assert _peak(lambda: export_policy_ppm(policy, tmp_path / "policy.ppm")) < 100_000

    def test_policy_csv_at_a_directory_is_an_io_error(self, forks, tmp_path, capsys):
        n = 151
        result = solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, BeliefGrid(n))
        value = tmp_path / "value.json"
        loop_value_field(value, result, CH, ECON_A, DISC)
        out = tmp_path / "analysis"
        (out / "policy.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["analyze", str(value), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr() == ("", f"i/o failure: [Errno 21] Is a directory: "
                                           f"{str(out / 'policy.csv')!r}\n")
        assert forks == []
        # policy.csv is written last, so the other files are left whole
        assert sorted(p.name for p in out.iterdir()) == [
            "policy.csv", "policy.ppm", "structure.json"]


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
