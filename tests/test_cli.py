import argparse
import filecmp
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import csv_payload_rowwise, csv_rows_fieldwise

import gpdwell.cli
import gpdwell.critical
import gpdwell.dynamics
import gpdwell.eigensolver
import gpdwell.scf
from gpdwell.cli import (
    CSV_CHUNK,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VALIDATION,
    build_parser,
    main,
    parse_range,
    read_csv,
    write_csv,
)
from gpdwell.eigensolver import EigensolverError
from gpdwell.scf import DomainTooSmall

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def _columns(path):
    """An emitted CSV's columns by name, each a list over the rows."""
    _, names, rows, _ = read_csv(str(path))
    return {name: list(col) for name, col in zip(names, zip(*rows))}


class TestParseRange:
    def test_single_value(self):
        assert parse_range("0.3") == [0.3]

    def test_inclusive_endpoints(self):
        assert parse_range("0:0.5:0.1") == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_non_commensurate_stop(self):
        assert parse_range("0:0.45:0.2") == pytest.approx([0.0, 0.2, 0.4])

    def test_rejects_bad_specs(self):
        for spec in ("0:1", "0:1:-0.5", "0:inf:1", "-inf:0:1", "0:1:nan", "nan", "inf",
                     "1:0:0.5", "0:1e308:1e-10", "0:2e6:1"):
            with pytest.raises(ValueError):
                parse_range(spec)


class TestSolve:
    def test_json_summary(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(["solve", "--a", "2", "--beta", "0.1", "--states", "2",
                     "--D", "800", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["error"] is None
        assert [s["n"] for s in doc["states"]] == [0, 1]
        assert doc["states"][0]["parity"] == "even"
        assert doc["states"][1]["parity"] == "odd"
        assert doc["states"][0]["mu"] < doc["states"][1]["mu"]
        assert all(s["converged"] for s in doc["states"])
        assert [s["eigensolves"] for s in doc["states"]] == [0, 0]

    def test_fine_grid_solves(self, tmp_path):
        # At D=16000 the default tol 1e-9 lies below the float64 floor of the
        # residual (the solve stalled at 2.2e-9 for 500 iterations); the
        # stop's floor of 8 eps ||op||_inf = 7.0e-9 ends it.
        out = tmp_path / "solve.json"
        code = main(["solve", "--a", "2", "--D", "16000", "--output", str(out)])
        assert code == EXIT_OK
        state = json.loads(out.read_text())["states"][0]
        assert state["converged"] and state["iterations"] < 10

    def test_psi_csv(self, tmp_path):
        out = tmp_path / "solve.json"
        psi_out = tmp_path / "psi.csv"
        main(["solve", "--a", "2", "--states", "2", "--D", "800",
              "--output", str(out), "--psi-out", str(psi_out)])
        meta, columns, rows, _ = read_csv(str(psi_out))
        assert columns == ["x", "psi_0", "psi_1"]
        assert len(rows) == 801
        assert rows[0][0] == -6.0 and rows[-1][0] == 6.0
        assert rows[0][1] == 0.0 and rows[-1][1] == 0.0

    def test_psi_csv_after_domain_growth(self, tmp_path):
        # state 3 at a=5 leaks out of L=2.5: every state is solved on L=3.75
        psi_out = tmp_path / "psi.csv"
        code = main(["solve", "--a", "5", "--L", "2.5", "--D", "400", "--states", "4",
                     "--output", str(tmp_path / "solve.json"), "--psi-out", str(psi_out)])
        assert code == EXIT_OK
        _, columns, rows, _ = read_csv(str(psi_out))
        assert columns == ["x", "psi_0", "psi_1", "psi_2", "psi_3"]
        assert len(rows) == 401
        assert rows[0][0] == -3.75 and rows[-1][0] == 3.75

    def test_json_records_solved_grid(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(["solve", "--a", "5", "--L", "2.5", "--D", "400", "--states", "4",
                     "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["L"] == 2.5  # the echo keeps the requested input
        assert [s["L"] for s in doc["states"]] == [3.75] * 4
        assert [s["domain_growths"] for s in doc["states"]] == [1] * 4

        main(["solve", "--a", "2", "--D", "400", "--output", str(out)])
        state = json.loads(out.read_text())["states"][0]
        assert state["L"] == 6.0 and state["domain_growths"] == 0

    def test_convergence_failure_reported(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(["solve", "--a", "5", "--beta", "9", "--D", "1000",
                     "--max-iter", "2", "--output", str(out)])
        assert code == EXIT_CONVERGENCE
        doc = json.loads(out.read_text())
        assert doc["error"]["kind"] == "MaxIterationsExceeded"
        assert doc["error"]["failed_states"] == [0]
        assert doc["error"]["max_residual"] == doc["states"][0]["residual"] > 1e-9
        assert np.isfinite(doc["states"][0]["energy"])  # the unconverged state has one

    def test_scf_tol_flag(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(["solve", "--a", "5", "--beta", "1", "--D", "800",
                     "--scf-tol", "1e-6", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["scf_tol"] == 1e-6
        state = doc["states"][0]
        assert state["residual"] <= 1e-6 * (1.0 + abs(state["mu"]))
        for removed in ("--tol-mu", "--tol-state", "--mixing"):
            with pytest.raises(SystemExit):
                main(["solve", "--a", "5", removed, "0.5", "--output", str(out)])

    def test_validation_error(self, tmp_path):
        code = main(["solve", "--a", "-1", "--output", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION

    def test_top_state_of_a_tiny_block(self, tmp_path, capsys):
        # state 5 is the last eigenvalue of its 3-row odd block on D = 8, and it
        # leaks as before
        out = tmp_path / "x.json"
        code = main(["solve", "--a", "1", "--states", "6", "--D", "8", "--L", "3",
                     "--output", str(out)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err == (
            "error: state still leaks past the walls after 3 enlargements "
            "(final L=10.125, wall slope=1.76e-01)\n")
        assert not out.exists()

    def test_eigensolver_failure_reported(self, tmp_path, capsys, monkeypatch):
        def count_failing(*args):  # the Sturm count that certifies the Newton pair
            raise EigensolverError("Sturm count failed (injected)")

        monkeypatch.setattr(gpdwell.eigensolver, "count_below", count_failing)
        code = main(["solve", "--a", "2", "--D", "400",
                     "--output", str(tmp_path / "x.json")])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: Sturm count failed") and "Traceback" not in err


def _payload(path):
    """(sha256 header value, data bytes) of an emitted CSV."""
    _, _, data = path.read_bytes().partition(b"# sha256: ")
    digest, _, data = data.partition(b"\n")
    return digest.decode(), data


def _grid_table():
    """A Wigner-like grid of 200,704 rows: x, p and a field even in both in value.

    In bits no row is even in p (linspace is not bitwise odd) and 116 of the
    224 row pairs mirror each other in x.
    """
    x = np.linspace(-6.0, 6.0, 448)
    p = np.linspace(-3.0, 3.0, 448)
    return [x, p, np.exp(-np.add.outer(x**2, p**2))]


def _flat(x, p, values):
    """A grid as the flat columns of its rows (x[i], p[j], values[i, j]) in x-major order."""
    return [np.repeat(x, len(p)), np.tile(p, len(x)), values.ravel()]


def _traced_peak(call):
    """The tracemalloc peak, in bytes, while call() runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def spool_dir(tmp_path, monkeypatch):
    """A directory that tempfile, and so the writer's spool, uses."""
    path = tmp_path / "spool"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


class TestWriteCsv:
    def test_matches_rowwise_reference(self, tmp_path):
        import hashlib

        nan_payload = (np.array([np.nan]).view(np.int64) | 1).view(np.float64)[0]
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 1 / 3, 0.1,
                      -0.0, 0.0, 5e-324, -1e300, nan_payload, -np.nan, 2.5])
        n = x.size
        columns = [
            x,
            x[::-1].copy(),
            np.linspace(-1.0, 1.0, 2 * n)[::2],  # strided view
            list(range(-3, n - 3)),  # Python ints
            np.arange(n, dtype=np.int64),  # numpy ints
            ["ok", "nan", "MaxIterationsExceeded"] * (n // 3),
            [float(v) for v in x],  # Python floats
            np.linspace(0.0, 1.0, n, dtype=np.float32),
        ]
        names = [f"c{i}" for i in range(len(columns))]
        footer = {"rate": 0.1, "zero": -0.0, "count": 3}
        out = tmp_path / "t.csv"
        write_csv(str(out), names, columns, {"a": 1.5, "D": 4}, footer=footer)
        digest, data = _payload(out)
        ref = csv_payload_rowwise(names, list(zip(*columns)), footer)
        assert data == ref
        assert digest == hashlib.sha256(ref).hexdigest()
        lines = data.split(b"\n")
        assert lines[1].startswith(b"0,") and lines[2].startswith(b"-0,")  # -0.0 kept

    def test_zero_rows(self, tmp_path):
        names = ["beta", "a_c", "status"]
        ref = csv_payload_rowwise(names, [])
        for columns in ([np.empty(0), np.empty(0), []], []):
            out = tmp_path / "empty.csv"
            write_csv(str(out), names, columns, {})
            assert _payload(out)[1] == ref == b"beta,a_c,status\n"

    @pytest.mark.parametrize("rows", [4 * CSV_CHUNK - 1, 4 * CSV_CHUNK, 4 * CSV_CHUNK + 1,
                                      8 * CSV_CHUNK + 1])
    def test_chunk_seams(self, tmp_path, rows):
        import hashlib

        x = np.linspace(-1.0, 1.0, rows)
        x[::5] = -0.0
        columns = [
            x,  # float64, mostly distinct
            np.resize([0.1, np.nan, -0.0, 0.0], rows),  # float64, four distinct
            list(range(rows)),  # Python ints
            (["ok", "NoSignChange", "MaxIterationsExceeded"] * rows)[:rows],
        ]
        names = ["x", "y", "i", "status"]
        footer = {"negativity": 0.25, "rows": rows}
        out = tmp_path / "seams.csv"
        write_csv(str(out), names, columns, {"a": 2.0}, footer=footer)
        digest, data = _payload(out)
        ref = csv_payload_rowwise(names, list(zip(*columns)), footer)
        assert data == ref
        assert digest == hashlib.sha256(ref).hexdigest()

    def test_peak_memory_near_payload(self, tmp_path):
        # The writer formats each chunk and spools it as soon as it is hashed, so
        # it holds one chunk's fields and text: on the grid's flat columns its
        # tracemalloc peak reads 0.47x the payload, against 2.0x for a writer that
        # keeps the encoded payload until the digest is known.
        columns = _flat(*_grid_table())
        out = tmp_path / "grid.csv"
        peak = _traced_peak(lambda: write_csv(str(out), ["x", "p", "W"], columns, {}))
        assert peak < 1.0 * out.stat().st_size

    def test_peak_memory_on_grid(self, tmp_path):
        # Passed as a grid, the table is spooled one x row at a time; the writer
        # also keeps the strings of each row whose mirror in x is still to come.
        # Its tracemalloc peak reads 0.34x the payload.
        grid = _grid_table()
        out = tmp_path / "grid.csv"
        peak = _traced_peak(lambda: write_csv(str(out), ["x", "p", "W"], grid, {}))
        assert peak < 1.0 * out.stat().st_size
        assert _payload(out)[1] == csv_payload_rowwise(["x", "p", "W"], zip(*_flat(*grid)))

    def test_mostly_distinct_columns_across_small_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gpdwell.cli, "CSV_CHUNK", 7)
        rows = 50
        distinct = np.random.default_rng(3).standard_normal(rows)
        distinct[[0, 8, 13, 14, 49]] = [-0.0, np.nan, np.inf, -np.inf, 0.0]
        half = np.resize(distinct[:rows // 2], rows)  # exactly half distinct
        few = np.resize([0.1, np.nan, -0.0, 0.0, np.inf], rows)
        columns = [distinct, half, few, distinct[::-1].copy()]
        names = ["d", "h", "f", "r"]
        out = tmp_path / "small.csv"
        write_csv(str(out), names, columns, {}, footer={"n": rows})
        assert _payload(out)[1] == csv_payload_rowwise(names, list(zip(*columns)), {"n": rows})

    def test_peak_memory_on_distinct_values(self, tmp_path):
        # Three columns of 200,000 distinct values (12 MB of CSV), formatted and
        # spooled a chunk at a time: they read a tracemalloc peak of 0.47x the
        # payload, against 2.5x held as bytes until the digest is known.
        rng = np.random.default_rng(0)
        columns = [rng.standard_normal(200_000) for _ in range(3)]
        out = tmp_path / "normal.csv"
        peak = _traced_peak(lambda: write_csv(str(out), ["a", "b", "c"], columns, {}))
        assert peak < 1.0 * out.stat().st_size

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "bad.csv"), ["x", "y"],
                      [np.zeros(3), np.zeros(2)], {})

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, spool_dir):
        # the fourth chunk fails to format: no output and no spool are left
        class Unprintable:
            def __str__(self):
                raise RuntimeError("unprintable")

        monkeypatch.setattr(gpdwell.cli, "CSV_CHUNK", 7)
        status = ["ok"] * 30
        status[24] = Unprintable()
        out = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="unprintable"):
            write_csv(str(out), ["x", "status"], [np.arange(30.0), status], {})
        assert not out.exists()
        assert list(spool_dir.iterdir()) == []


_CELLS = [0.0, -0.0, 1.5, -2.25, 1e-300, 5e-324, np.nan, np.inf, -np.inf]


@st.composite
def _grids(draw):
    """A small grid whose values are even in p, mirrored in x, both or neither, in bits.

    Some zeros then get the other zero as their mirror partner, which leaves
    the row even, or the rows mirrored, in value but not in bits.
    """
    nx, n = draw(st.integers(1, 7)), draw(st.integers(0, 7))  # n even: no p = 0 column
    x = np.array(draw(st.lists(st.sampled_from(_CELLS), min_size=nx, max_size=nx)))
    p = np.array(draw(st.lists(st.sampled_from(_CELLS), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from(_CELLS), min_size=nx * n, max_size=nx * n)))
    w = w.reshape(nx, n)
    if draw(st.booleans()):
        w[:, :n // 2] = w[:, ::-1][:, :n // 2]
    if draw(st.booleans()):
        w[nx - nx // 2:] = w[:nx // 2][::-1]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j = draw(st.integers(0, nx - 1)), draw(st.integers(0, n - 1))
        partner = (i, n - 1 - j) if draw(st.booleans()) else (nx - 1 - i, j)
        w[i, j], w[partner] = (-0.0, 0.0) if draw(st.booleans()) else (0.0, -0.0)
    return x, p, w


class TestWriteGrid:
    @settings(max_examples=300, deadline=None)
    @given(grid=_grids())
    @example(grid=(np.array([1.0]), np.array([-1.0, 0.0, 1.0]), np.array([[0.0, 2.0, -0.0]])))
    @example(grid=(np.array([-1.0, 1.0]), np.array([0.5, 1.5]), np.array([[1.0, 0.0],
                                                                          [1.0, -0.0]])))
    def test_matches_rowwise_reference(self, grid):
        import hashlib

        footer = {"negativity": 0.25}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "grid.csv"
            write_csv(str(out), ["x", "p", "W"], list(grid), {"D": 4}, footer=footer)
            digest, data = _payload(out)
        ref = csv_payload_rowwise(["x", "p", "W"], zip(*_flat(*grid)), footer)
        assert data == ref
        assert digest == hashlib.sha256(ref).hexdigest()

    def test_wrong_shape_rejected(self, tmp_path, spool_dir):
        out = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="shape"):
            write_csv(str(out), ["x", "p", "W"], [np.zeros(3), np.zeros(2), np.zeros((2, 3))], {})
        assert not out.exists()
        assert list(spool_dir.iterdir()) == []


class TestWriteWignerTable:
    ARGV = ["wigner", "--a", "2", "--D", "200"]  # 201 x 101 = 20,301 rows

    def test_matches_rowwise_reference_across_chunks(self, tmp_path, monkeypatch, spool_dir):
        # the grid goes out one x row at a time; W of states 0-3 is bitwise even
        # in p and in x, so every row takes both of the writer's mirror paths
        import hashlib

        calls = []
        write = gpdwell.cli.write_csv

        def recording(path, names, columns, config, footer=None):
            calls.append((names, columns, footer))
            write(path, names, columns, config, footer=footer)

        monkeypatch.setattr(gpdwell.cli, "write_csv", recording)
        for state in range(4):
            out = tmp_path / f"w{state}.csv"
            assert main(self.ARGV + ["--state", str(state), "--output", str(out)]) == EXIT_OK
            [(names, (x, p, values), footer)] = calls
            calls.clear()
            assert values.shape == (x.size, p.size) == (201, 101)
            bits = values.view(np.int64)
            assert np.array_equal(bits, bits[::-1]) and np.array_equal(bits, bits[:, ::-1])
            digest, data = _payload(out)
            ref = csv_payload_rowwise(names, zip(*_flat(x, p, values)), footer)
            assert data == ref
            assert digest == hashlib.sha256(ref).hexdigest()
        assert list(spool_dir.iterdir()) == []  # the spools are gone

    def test_output_to_pipe(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(self.ARGV + ["--output", str(out)]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(gpdwell.cli.__file__))
        piped = subprocess.run(
            [sys.executable, "-m", "gpdwell.cli", *self.ARGV, "--output", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            timeout=120, check=True)
        assert piped.stdout == out.read_bytes()


def _same_value(a, b) -> bool:
    """a and b are the same field value: type, sign of zero and nan included."""
    if isinstance(a, float) and isinstance(b, float):
        return (np.isnan(a) and np.isnan(b)) or (a == b and np.copysign(1, a) == np.copysign(1, b))
    return type(a) is type(b) and a == b


class TestReadCsv:
    def _table(self, tmp_path):
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 0.1, -0.0, 0.1, 2.5])
        columns = [
            x,
            x[::-1].copy(),
            np.resize([0.1, -0.0, np.nan], x.size),
            ["ok", "nan", "MaxIterationsExceeded", "ok", "NoSignChange"] * 2,
            list(range(x.size)),
        ]
        out = tmp_path / "t.csv"
        write_csv(str(out), ["x", "r", "y", "status", "i"], columns, {"a": 2.0},
                  footer={"rate": 0.5})
        return out

    def test_matches_fieldwise_parse(self, tmp_path):
        out = self._table(tmp_path)
        meta, names, rows, footer = read_csv(str(out))
        ref_names, ref_rows = csv_rows_fieldwise(str(out))
        assert names == ref_names == ["x", "r", "y", "status", "i"]
        assert len(rows) == len(ref_rows) == 10
        for row, ref in zip(rows, ref_rows):
            assert len(row) == len(ref)
            assert all(_same_value(a, b) for a, b in zip(row, ref)), (row, ref)
        assert meta["a"] == "2" and footer == {"rate": 0.5}

    def test_repeated_texts_share_one_value(self, tmp_path):
        out = self._table(tmp_path)
        _, _, rows, _ = read_csv(str(out))
        texts = [text.split(",") for text in _payload(out)[1].decode().splitlines()[1:]]
        ids = {}
        for row, fields in zip(rows, texts):
            for value, text in zip(row, fields):
                ids.setdefault(text, set()).add(id(value))
        assert all(len(found) == 1 for found in ids.values())
        assert len(ids["0.10000000000000001"]) == 1 and len(ids["ok"]) == 1

    def test_peak_memory_on_grid_table(self, tmp_path):
        # Parsed once per distinct text, the 448 x 448 grid reads back at a
        # tracemalloc peak of 1.94x its payload, mostly the row tuples; with a
        # float object per field it read 2.35x.
        out = tmp_path / "grid.csv"
        write_csv(str(out), ["x", "p", "W"], _grid_table(), {})
        peak = _traced_peak(lambda: read_csv(str(out)))
        assert peak < 2.1 * out.stat().st_size


class TestScanCritical:
    def test_single_point(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0", "--D", "1000",
                     "--tol", "1e-3", "--output", str(out)])
        assert code == EXIT_OK
        meta, columns, rows, footer = read_csv(str(out))
        assert columns == ["beta", "a_c", "E_c", "curvature", "status"]
        col = _columns(out)
        assert col["status"][0] == "ok"
        assert col["a_c"][0] == pytest.approx(1.7616, abs=0.01)
        assert footer == {}  # fewer than 4 points: no fit

    def test_sweep_emits_fit(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0:1.5:0.5", "--D", "600",
                     "--tol", "1e-3", "--output", str(out)])
        assert code == EXIT_OK
        _, _, rows, footer = read_csv(str(out))
        assert len(rows) == 4
        assert "a_c_fit_c0" in footer and "E_c_fit_c1" in footer
        assert footer["a_c_fit_c1"] < 0.0

    def test_failed_fit_keeps_the_rows(self, tmp_path):
        # beta^2 underflows, so the quadratic fit is rank-deficient: no fit, every row kept
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0:3e-300:1e-300", "--D", "400",
                     "--output", str(out)])
        assert code == EXIT_OK
        _, _, _, footer = read_csv(str(out))
        assert _columns(out)["status"] == ["ok"] * 4
        assert footer == {}

    def test_split_sweep_gives_the_same_rows(self, tmp_path):
        # the README's promise; the halves run on the bare pairs the whole sweep cached
        def data_rows(betas):
            out = tmp_path / f"scan_{betas}.csv"
            assert main(["scan-critical", "--betas", betas, "--D", "400",
                         "--output", str(out)]) == EXIT_OK
            lines = [line for line in out.read_bytes().splitlines() if not line.startswith(b"#")]
            return lines[1:]  # the column names go first

        gpdwell.scf._bare_start.cache_clear()
        whole = data_rows("0:1.5:0.5")
        assert len(whole) == 4
        assert whole == data_rows("0:0.5:0.5") + data_rows("1:1.5:0.5")

    def test_bad_bracket_partial(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0", "--bracket", "2.5,3.0",
                     "--D", "600", "--output", str(out)])
        assert code == EXIT_VALIDATION


    def test_bracket_without_root_at_one_beta(self, tmp_path):
        # a_c(4) is below 1.3: only that point lacks a sign change
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0:4:2", "--bracket", "1.3,3.0",
                     "--D", "400", "--output", str(out)])
        assert code == EXIT_PARTIAL
        col = _columns(out)
        assert col["beta"] == [0.0, 2.0, 4.0]
        assert col["status"] == ["ok", "ok", "NoSignChange"]
        assert np.isnan(col["a_c"][2])

    def test_reversed_bracket_is_validation_error(self, tmp_path):
        code = main(["scan-critical", "--betas", "0", "--bracket", "3.0,0.5",
                     "--D", "400", "--output", str(tmp_path / "scan.csv")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("option", [
        ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
        ["--bracket", "1"], ["--bracket", "0.5,1,3"], ["--bracket", "0.5,nan"],
        ["--bracket", "0.5,inf"], ["--bracket", "0.5,x"],
        ["--bracket=-1,3"], ["--bracket", "0,3"],
    ])
    def test_bad_search_option_rejected_before_any_solve(self, tmp_path, capsys, option):
        # beta = 0 only: with --tol <= 0 at beta >= 1 the search used not to stop.
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0", "--D", "200", *option,
                     "--output", str(out)])
        assert code == EXIT_VALIDATION
        flag = option[0].partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {flag} must be")
        assert not out.exists()

    def test_failed_points_reported_in_band(self, tmp_path):
        # five steps are too few for the Newton run on (w, mu, a) at beta = 10 (it takes 7)
        # and 20 (no root in the bracket), and five iterations too few for the cold bracket
        # ends of the bisection it falls back to; the finished point keeps its row
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0:20:10", "--D", "400", "--max-iter", "5",
                     "--output", str(out)])
        assert code == EXIT_PARTIAL
        col = _columns(out)
        assert col["beta"] == [0.0, 10.0, 20.0]
        assert col["status"] == ["ok", "MaxIterationsExceeded", "MaxIterationsExceeded"]
        assert col["a_c"][0] == pytest.approx(1.7616, abs=0.01)
        assert np.isnan(col["a_c"][1]) and np.isnan(col["a_c"][2])

    @pytest.mark.parametrize("max_iter, expected, status",
                             [(3, EXIT_OK, "ok"), (5, EXIT_OK, "ok")])
    def test_linear_point_spends_newton_steps_of_the_budget(self, tmp_path, monkeypatch,
                                                            max_iter, expected, status):
        # at beta = 0 the Newton run on (w, mu, a) takes 4 steps, each one iteration of
        # --max-iter: 3 are too few, and the bisection takes over, whose solves at beta = 0
        # take 1 step each; 5 are enough for the Newton run
        bisections, bisection = [], gpdwell.critical._bisection

        def recording(*args):
            bisections.append(args)
            return bisection(*args)

        monkeypatch.setattr(gpdwell.critical, "_bisection", recording)
        out = tmp_path / "scan.csv"
        code = main(["scan-critical", "--betas", "0", "--D", "400", "--max-iter",
                     str(max_iter), "--output", str(out)])
        assert code == expected
        assert _columns(out)["status"] == [status]
        assert len(bisections) == (max_iter < 4)

    def test_points_share_the_bare_eigensolves(self, tmp_path, monkeypatch):
        # every point starts its Newton run from the bare pair at the bracket's midpoint,
        # solved once in this process and shared by the later points
        gpdwell.scf._bare_start.cache_clear()
        calls = []
        original = gpdwell.scf.lowest_eigenpairs

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gpdwell.scf, "lowest_eigenpairs", counting)
        code = main(["scan-critical", "--betas", "0:1.5:0.5", "--D", "600", "--tol", "1e-3",
                     "--output", str(tmp_path / "scan.csv")])
        assert code == EXIT_OK
        assert len(calls) == 1


class TestWkbAndOverlaps:
    def test_wkb_sweep(self, tmp_path):
        out = tmp_path / "wkb.csv"
        code = main(["wkb", "--a", "5", "--betas", "0:0.2:0.1", "--D", "1000",
                     "--output", str(out)])
        assert code == EXIT_OK
        col = _columns(out)
        assert list(col) == ["beta", "mu_0", "E_0", "E_1", "dE", "T_0", "status"]
        t0 = col["T_0"]
        assert t0[0] < t0[1] < t0[2]  # deep well: pumping raises transparency

    def test_wkb_deep_well_splitting_positive(self, tmp_path):
        out = tmp_path / "wkb.csv"
        code = main(["wkb", "--a", "12", "--betas", "0:1:0.1", "--output", str(out)])
        assert code == EXIT_OK
        de = _columns(out)["dE"]
        assert len(de) == 11
        assert all(d > 0 for d in de)
        assert de == sorted(de)  # pumping widens the doublet

    def test_wkb_partial_failure(self, tmp_path):
        out = tmp_path / "wkb.csv"
        code = main(["wkb", "--a", "5", "--betas", "0:9:9", "--D", "1000",
                     "--max-iter", "2", "--output", str(out)])
        assert code == EXIT_PARTIAL
        col = _columns(out)
        assert col["status"][0] == "ok"
        assert col["status"][1] == "MaxIterationsExceeded"
        assert np.isnan(col["T_0"][1])

    def test_wkb_eigensolver_failure_at_one_beta(self, tmp_path, monkeypatch):
        count, calls = gpdwell.eigensolver.count_below, []

        def count_failing_fifth(*args):
            calls.append(args)
            # each solve certifies its Newton pair by two counts, so states 0, 1
            # at beta = 0 came first and this certifies state 0 at beta = 0.1
            if len(calls) == 5:
                raise EigensolverError("injected")
            return count(*args)

        monkeypatch.setattr(gpdwell.eigensolver, "count_below", count_failing_fifth)
        out = tmp_path / "wkb.csv"
        code = main(["wkb", "--a", "5", "--betas", "0:0.2:0.1", "--D", "600",
                     "--output", str(out)])
        assert code == EXIT_PARTIAL
        col = _columns(out)
        assert col["status"] == ["ok", "EigensolverError", "ok"]
        values = [col[name] for name in ("mu_0", "E_0", "E_1", "dE", "T_0")]
        assert all(np.isnan(v[1]) for v in values)
        assert all(np.isfinite(v[0]) and np.isfinite(v[2]) for v in values)

    def test_overlaps_domain_failure_at_one_beta(self, tmp_path, monkeypatch):
        solve_spectrum = gpdwell.cli.solve_spectrum

        def solve_spectrum_failing(grid, trap, k, cfg=None):
            if trap.beta == 0.1:
                raise DomainTooSmall("injected")
            return solve_spectrum(grid, trap, k, cfg)

        monkeypatch.setattr(gpdwell.cli, "solve_spectrum", solve_spectrum_failing)
        out = tmp_path / "ov.csv"
        code = main(["overlaps", "--a", "5", "--betas", "0:0.2:0.1", "--states", "2",
                     "--D", "600", "--output", str(out)])
        assert code == EXIT_PARTIAL
        col = _columns(out)
        assert list(zip(col["beta"], col["i"], col["j"])) == [
            (b, i, j) for b in (0.0, 0.1, 0.2) for i in (0, 1) for j in (0, 1)]
        assert col["status"] == ["ok"] * 4 + ["DomainTooSmall"] * 4 + ["ok"] * 4
        assert all(np.isnan(c) for c in col["C_ij"][4:8])

    def test_overlaps_sweep(self, tmp_path):
        out = tmp_path / "ov.csv"
        code = main(["overlaps", "--a", "5", "--betas", "0:0.2:0.2",
                     "--states", "2", "--D", "1000", "--output", str(out)])
        assert code == EXIT_OK
        col = _columns(out)
        assert list(col) == ["beta", "i", "j", "C_ij", "status"]
        assert len(col["status"]) == 2 * 4
        cells = list(zip(col["i"], col["j"], col["C_ij"]))
        assert all(abs(c - 1.0) <= 1e-9 for i, j, c in cells if i == j)
        assert all(c <= 1e-8 for i, j, c in cells if i != j)


    def test_overlaps_after_domain_growth(self, tmp_path):
        # L=2.5 is too small for state 3 at a=5: its solve grows the domain
        out = tmp_path / "ov.csv"
        code = main(["overlaps", "--a", "5", "--betas", "0", "--L", "2.5",
                     "--D", "400", "--output", str(out)])
        assert code == EXIT_OK
        col = _columns(out)
        assert len(col["status"]) == 16
        assert all(s == "ok" for s in col["status"])
        diag = [c for i, j, c in zip(col["i"], col["j"], col["C_ij"]) if i == j]
        assert all(abs(d - 1.0) <= 1e-9 for d in diag)


class TestWignerCommand:
    def test_field_and_footer(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["wigner", "--a", "2", "--D", "600", "--output", str(out)])
        assert code == EXIT_OK
        meta, columns, rows, footer = read_csv(str(out))
        assert columns == ["x", "p", "W"]
        assert len(rows) == 601 * 301
        assert footer["phase_space_integral"] == pytest.approx(1.0, abs=1e-6)
        assert footer["negativity"] > 0.0

    def test_half_D_odd_takes_the_next_even_P(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["wigner", "--a", "2", "--D", "402", "--output", str(out)])
        assert code == EXIT_OK
        _, _, rows, footer = read_csv(str(out))
        assert len(rows) == 403 * 203  # P = 202
        assert footer["phase_space_integral"] == pytest.approx(1.0, abs=1e-6)

    def test_bad_P_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(gpdwell.cli, "solve_state", lambda *args: calls.append(args))
        out = tmp_path / "w.csv"
        code = main(["wigner", "--a", "2", "--D", "400", "--P", "3", "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: P must be an even integer")
        assert calls == [] and not out.exists()


class TestNegativityCommand:
    def test_sweep_matches_wigner_footer(self, tmp_path):
        out = tmp_path / "neg.csv"
        code = main(["negativity", "--a", "2", "--betas", "0:0.2:0.1", "--D", "600",
                     "--output", str(out)])
        assert code == EXIT_OK
        col = _columns(out)
        assert list(col) == ["beta", "negativity", "integral", "status"]
        assert col["beta"] == [0.0, 0.1, 0.2]
        assert col["status"] == ["ok"] * 3

        w_out = tmp_path / "w.csv"
        assert main(["wigner", "--a", "2", "--beta", "0", "--D", "600",
                     "--output", str(w_out)]) == EXIT_OK
        _, _, _, footer = read_csv(str(w_out))
        assert col["negativity"][0] == footer["negativity"]
        assert col["integral"][0] == footer["phase_space_integral"]

    def test_half_D_odd(self, tmp_path):
        out = tmp_path / "neg.csv"
        code = main(["negativity", "--a", "2", "--betas", "0:1:0.5", "--D", "402",
                     "--output", str(out)])
        assert code == EXIT_OK
        col = _columns(out)
        assert col["status"] == ["ok"] * 3
        assert all(i == pytest.approx(1.0, abs=1e-6) for i in col["integral"])


class TestSweepInput:
    @pytest.mark.parametrize("command", [["scan-critical"], ["wkb", "--a", "5"],
                                         ["overlaps", "--a", "5"], ["negativity", "--a", "2"]])
    @pytest.mark.parametrize("betas", ["0:inf:1", "nan", "1:0:0.5"])
    def test_bad_range_writes_nothing(self, tmp_path, command, betas):
        out = tmp_path / "sweep.csv"
        assert main(command + ["--betas", betas, "--output", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command", [["scan-critical"], ["wkb", "--a", "5"],
                                         ["overlaps", "--a", "5"], ["negativity", "--a", "2"]])
    def test_non_numeric_range_names_the_flag(self, tmp_path, capsys, command):
        out = tmp_path / "sweep.csv"
        for betas in ("--betas=0:x:1", "--betas=-0.1:0.1:0.1", "--betas=-1"):
            assert main(command + [betas, "--output", str(out)]) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith("error: --betas must be")
            assert not out.exists()


class TestDynamicsCommands:
    def test_dynamics_footer(self, tmp_path):
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--a", "10", "--tmax", "0.6", "--output", str(out)])
        assert code == EXIT_OK
        _, columns, rows, footer = read_csv(str(out))
        assert columns == ["t", "F", "var_x", "var_p"]
        assert footer["norm_drift"] <= 1e-6
        lam = np.sqrt(20.0)
        assert 0.75 * lam <= footer["fit_rate"] <= 2.5 * lam
        assert footer["fit_r2"] >= 0.98

    def test_dynamics_without_growth_window(self, tmp_path):
        # a packet at rest on the barrier top over a short run: no FOTOC growth window, so
        # the data and the footer go out unfitted
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--a", "10", "--x0", "0", "--p0", "0", "--tmax", "0.02",
                     "--D", "400", "--output", str(out)])
        assert code == EXIT_OK
        _, columns, rows, footer = read_csv(str(out))
        assert columns == ["t", "F", "var_x", "var_p"] and rows
        assert sorted(footer) == ["lyapunov", "norm_drift", "two_lyapunov"]

    def test_dynamics_and_classical_keep_the_same_steps(self, tmp_path):
        # 25 steps at stride 2: both keep steps 0, 2, ..., 24 and the last, 25
        stepping = ["--a", "10", "--x0", "0.5", "--p0", "0", "--dt", "1e-4", "--tmax", "0.0025",
                    "--stride", "2"]
        t = {}
        for command in ("dynamics", "classical"):
            out = tmp_path / f"{command}.csv"
            extra = ["--D", "400"] if command == "dynamics" else []
            assert main([command, *stepping, *extra, "--output", str(out)]) == EXIT_OK
            _, columns, rows, _ = read_csv(str(out))
            t[command] = [row[columns.index("t")] for row in rows]
        assert t["dynamics"] == t["classical"]
        assert t["classical"] == pytest.approx(1e-4 * np.array([*range(0, 25, 2), 25]))

    def test_classical_energy(self, tmp_path):
        out = tmp_path / "cl.csv"
        code = main(["classical", "--a", "2", "--x0", "1.2", "--p0", "0",
                     "--tmax", "5", "--output", str(out)])
        assert code == EXIT_OK
        _, columns, rows, footer = read_csv(str(out))
        assert columns == ["t", "x", "p"]
        assert footer["energy"] == pytest.approx(-2.0 * 1.2**2 + 1.2**4)
        assert footer["lyapunov"] == pytest.approx(2.0)
        assert all(r[1] > 0 for r in rows)  # negative energy stays in one well

    @pytest.mark.parametrize("command, flag", [
        (["dynamics", "--a", "10", "--dt", "0"], "--dt"),
        (["dynamics", "--a", "10", "--stride", "0"], "--stride"),
        (["classical", "--a", "10", "--x0", "1.5", "--p0", "0", "--stride", "-1"], "--stride"),
    ])
    def test_bad_stepping_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out.csv"
        assert main(command + ["--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and "Traceback" not in err
        assert not out.exists()


    def test_classical_bad_depth_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(gpdwell.cli, "classical_trajectory", lambda *args: calls.append(args))
        out = tmp_path / "cl.csv"
        code = main(["classical", "--a", "-1", "--x0", "1", "--p0", "0", "--tmax", "100",
                     "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: a must be positive")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("dt, tmax", [("0.5", "100"), ("1", "10")])
    def test_classical_overflow_reported_in_band(self, tmp_path, capsys, dt, tmax):
        out = tmp_path / "cl.csv"
        code = main(["classical", "--a", "10", "--x0", "1.5", "--p0", "0", "--dt", dt,
                     "--tmax", tmax, "--output", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: the RK4 step overflowed after t = ")
        assert "--dt" in err and "Traceback" not in err
        assert not out.exists()

    def test_snapshot_memory_bounded(self, tmp_path, capsys, monkeypatch):
        # 301 snapshots of 201 values: over a bound of 10^4 stored values
        monkeypatch.setattr(gpdwell.dynamics, "MAX_STEPS", 10_000)
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--a", "10", "--D", "200", "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert "snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_snapshots_rejected_before_stepping(self, tmp_path, capsys, monkeypatch):
        # 20000 steps at stride 100000 keep 2 snapshots; fotoc needs 10
        def no_stepping(*args, **kwargs):
            raise AssertionError("propagate called")

        monkeypatch.setattr(gpdwell.cli, "propagate", no_stepping)
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--a", "10", "--tmax", "2", "--stride", "100000",
                     "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --stride 100000 keeps 2 snapshots")
        assert not out.exists()


@pytest.fixture
def iterate_calls(monkeypatch):
    """The scf._ladder calls made, one per solve; a Crank-Nicolson step fails the test."""
    calls = []
    ladder = gpdwell.scf._ladder

    def counting(*args):
        calls.append(args)
        return ladder(*args)

    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(gpdwell.scf, "_ladder", counting)
    monkeypatch.setattr(gpdwell.dynamics, "zgttrs", no_step)
    return calls


class TestOutputPaths:
    # (argv, the flag, whether the bad path names an existing directory)
    CASES = [
        (["scan-critical", "--betas", "0:1:0.5", "--D", "1000", "--output"], "--output", False),
        (["wkb", "--a", "5", "--betas", "0", "--D", "400", "--output"], "--output", True),
        (["wigner", "--a", "2", "--D", "400", "--output"], "--output", False),
        (["solve", "--a", "2", "--D", "400", "--output"], "--output", False),
        (["solve", "--a", "2", "--D", "400", "--psi-out"], "--psi-out", False),
        (["solve", "--a", "2", "--D", "400", "--psi-out"], "--psi-out", True),
        (["dynamics", "--a", "10", "--D", "200", "--output"], "--output", True),
    ]

    @pytest.mark.parametrize("argv, flag, is_dir", CASES)
    def test_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, iterate_calls,
                                      argv, flag, is_dir):
        monkeypatch.chdir(tmp_path)  # where solve.json would go by default
        (tmp_path / "taken").mkdir()
        bad = "taken" if is_dir else str(tmp_path / "missing_dir" / "out.csv")
        assert main(argv + [bad]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert iterate_calls == []
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    @pytest.mark.parametrize("argv, flag", [
        (["wkb", "--a", "5", "--betas", "0:0.2:0.1", "--D", "400", "--output"], "--output"),
        (["solve", "--a", "2", "--D", "400", "--psi-out"], "--psi-out"),
        (["dynamics", "--a", "10", "--D", "200", "--output"], "--output"),
    ])
    def test_empty_path_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                 iterate_calls, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(argv + [""]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {flag} must name a file, got ''\n"
        assert iterate_calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exists", [False, True])
    def test_one_file_for_both_refused(self, tmp_path, capsys, monkeypatch, iterate_calls,
                                       exists):
        # the CSV would overwrite the JSON record
        monkeypatch.chdir(tmp_path)
        if exists:
            (tmp_path / "P").write_text("kept\n")
        argv = ["solve", "--a", "2", "--D", "400",
                "--output", "P", "--psi-out", str(tmp_path / "P")]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --output and --psi-out name the same file ")
        assert iterate_calls == []
        assert [p.name for p in tmp_path.iterdir()] == (["P"] if exists else [])
        if exists:
            assert (tmp_path / "P").read_text() == "kept\n"

    def test_both_to_one_pipe(self, tmp_path):
        argv = ["solve", "--a", "2", "--D", "400"]
        record, psi = tmp_path / "solve.json", tmp_path / "psi.csv"
        assert main(argv + ["--output", str(record), "--psi-out", str(psi)]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(gpdwell.cli.__file__))
        piped = subprocess.run(
            [sys.executable, "-m", "gpdwell.cli", *argv,
             "--output", "/dev/stdout", "--psi-out", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            timeout=60, check=True)
        assert piped.stdout == record.read_bytes() + psi.read_bytes()


class TestSizeInput:
    @pytest.mark.parametrize("argv, named", [
        (["solve", "--a", "2", "--D", "400", "--L", "1e-300"], "L=1e-300 "),
        (["solve", "--a", "2", "--D", "400", "--L", "1e300"], "L=1e+300 "),
        (["wigner", "--a", "2", "--D", "40000"], "D = 40000 and P = 20000"),
        (["wigner", "--a", "2", "--D", "400", "--P", "1000000"], "P = 1000000"),
        (["negativity", "--a", "2", "--betas", "0", "--D", "40000"], "D = 40000"),
    ])
    def test_refused_before_any_solve(self, tmp_path, capsys, iterate_calls, argv, named):
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert iterate_calls == [] and not out.exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", [
        ["classical", "--a", "10", "--x0", "nan", "--p0", "0"],
        ["classical", "--a", "nan", "--x0", "1.5", "--p0", "0"],
        ["classical", "--a", "10", "--x0", "1.5", "--p0", "inf"],
        ["classical", "--a", "10", "--x0", "1.5", "--p0", "0", "--tmax", "inf"],
        ["dynamics", "--a", "10", "--x0", "nan"],
        ["dynamics", "--a", "10", "--p0", "inf"],
        ["dynamics", "--a", "nan"],
        ["dynamics", "--a", "10", "--tmax", "inf"],
        ["dynamics", "--a", "10", "--tmax", "1e9", "--dt", "1"],  # 1e9 steps: over the cap
        ["solve", "--a", "2", "--beta", "inf"],
        ["wkb", "--a", "nan", "--betas", "0"],
        ["solve", "--a", "2", "--beta", "1", "--D", "400", "--scf-tol", "inf"],
        ["wkb", "--a", "5", "--betas", "0", "--D", "400", "--scf-tol", "inf"],
    ])
    def test_rejected_before_any_work(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(command + ["--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


class TestStateIndexInput:
    @pytest.mark.parametrize("command, message", [
        (["solve", "--a", "2", "--states", "0"], "--states must be >= 1, got 0"),
        (["overlaps", "--a", "5", "--betas", "0", "--states", "0"],
         "--states must be >= 1, got 0"),
        (["wigner", "--a", "2", "--state", "-1"], "--state must be >= 0, got -1"),
        (["negativity", "--a", "2", "--betas", "0", "--state", "-1"],
         "--state must be >= 0, got -1"),
    ])
    def test_flag_named_before_any_solve(self, tmp_path, capsys, monkeypatch, command,
                                         message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the flag was checked")

        monkeypatch.setattr(gpdwell.cli, "solve_state", no_solve)
        monkeypatch.setattr(gpdwell.cli, "solve_spectrum", no_solve)
        out = tmp_path / "out"
        assert main(command + ["--output", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    # a grid of D = 8 intervals holds 7 states: n = 0..6
    LIMITS = [(["solve", "--a", "0.5"], "--states", 7),
              (["overlaps", "--a", "0.5", "--betas", "0"], "--states", 7),
              (["wigner", "--a", "2"], "--state", 6),
              (["negativity", "--a", "2", "--betas", "0"], "--state", 6)]

    @pytest.mark.parametrize("command, flag, most", LIMITS)
    def test_past_the_grid_refused_with_the_limit_named(self, tmp_path, capsys, monkeypatch,
                                                        command, flag, most):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the flag was checked")

        monkeypatch.setattr(gpdwell.cli, "solve_state", no_solve)
        monkeypatch.setattr(gpdwell.cli, "solve_spectrum", no_solve)
        out = tmp_path / "out"
        code = main(command + [flag, str(most + 1), "--D", "8", "--L", "20",
                               "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {flag} must be <= {most} on a grid of D = 8 intervals, got {most + 1}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, most", LIMITS)
    def test_last_state_of_the_grid_accepted(self, tmp_path, command, flag, most):
        out = tmp_path / "out"
        code = main(command + [flag, str(most), "--D", "8", "--L", "20", "--output", str(out)])
        assert code == EXIT_OK
        assert out.exists()


class TestReadme:
    def test_cli_block_lists_every_subcommand(self):
        text = README.read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name in sub.choices:
            assert f"gpdwell {name} " in block, name

    def test_no_scripts_directory(self):
        assert "scripts/" not in README.read_text()


class TestImportCost:
    def test_cli_import_skips_scipy_optimize(self):
        # scipy.optimize alone nearly doubles the start-up of every command
        import gpdwell

        src = os.path.dirname(os.path.dirname(gpdwell.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import gpdwell.cli, sys; sys.exit('scipy.optimize' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0

    def test_parser_loads_no_unused_scipy_subpackage(self):
        # of scipy's public subpackages the CLI needs linalg alone
        import gpdwell

        src = os.path.dirname(os.path.dirname(gpdwell.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, gpdwell.cli; gpdwell.cli.build_parser(); "
                 "print(' '.join(m for m in sorted(sys.modules) if m.startswith('scipy.')))")
        loaded = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60, check=True,
                                stdout=subprocess.PIPE, text=True).stdout.split()
        unused = {"optimize", "sparse", "special", "integrate", "interpolate", "fft", "signal",
                  "stats"}
        assert [m for m in loaded if m.split(".")[1] in unused] == []


class TestConsoleScript:
    @pytest.fixture
    def project(self):
        tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
        return tomllib.loads(PYPROJECT.read_text())["project"]

    def _run(self, project, monkeypatch, *argv):
        """What the installed gpdwell script does: load the entry point, call it on argv."""
        script = importlib.metadata.EntryPoint(
            name="gpdwell", value=project["scripts"]["gpdwell"], group="console_scripts").load()
        assert script is main
        monkeypatch.setattr(sys, "argv", ["gpdwell", *argv])
        return script()

    def test_version(self, project, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            self._run(project, monkeypatch, "--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"gpdwell {project['version']}\n"

    def test_classical(self, project, monkeypatch, tmp_path):
        out = tmp_path / "c.csv"
        assert self._run(project, monkeypatch, "classical", "--a", "10", "--x0", "1.5",
                         "--p0", "0", "--tmax", "0.01", "--output", str(out)) == EXIT_OK
        _, columns, rows, _ = read_csv(str(out))
        assert columns == ["t", "x", "p"] and len(rows) == 11  # 100 steps at stride 10


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["wkb", "--a", "3", "--betas", "0:0.1:0.1", "--D", "800"]
        assert main(argv + ["--output", str(a)]) == EXIT_OK
        assert main(argv + ["--output", str(b)]) == EXIT_OK
        assert filecmp.cmp(str(a), str(b), shallow=False)
        assert a.read_bytes() == b.read_bytes()

    def test_hash_matches_payload(self, tmp_path):
        import hashlib

        out = tmp_path / "cl.csv"
        main(["classical", "--a", "2", "--x0", "1", "--p0", "0",
              "--tmax", "1", "--output", str(out)])
        lines = out.read_text().splitlines(keepends=True)
        payload_start = next(i for i, ln in enumerate(lines)
                             if ln.startswith("# sha256: ")) + 1
        digest = lines[payload_start - 1][len("# sha256: "):].strip()
        payload = "".join(lines[payload_start:])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_output_to_pipe(self, tmp_path):
        # the digest heads the file, yet the file is written front to back
        argv = ["classical", "--a", "2", "--x0", "1", "--p0", "0", "--tmax", "1"]
        out = tmp_path / "cl.csv"
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(gpdwell.cli.__file__))
        piped = subprocess.run(
            [sys.executable, "-m", "gpdwell.cli", *argv, "--output", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            timeout=60, check=True)
        assert piped.stdout == out.read_bytes()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gpdwell" in capsys.readouterr().out
