"""Artifact writers and readers: exact round trips and validation."""

import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from conftest import rng
from dynmc import io
from dynmc.config import get_preset
from dynmc.exceptions import ConfigError


class TestCellCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        field = rng(0).random((5, 3)) * np.pi
        path = tmp_path / "cells.csv"
        io.write_cell_csv(str(path), field)
        back = io.read_cell_csv(str(path), 5, 3)
        assert (back == field).all()

    def test_rewrite_is_byte_identical(self, tmp_path):
        field = rng(1).standard_normal((4, 4)) * 1e-13
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_cell_csv(str(a), field)
        io.write_cell_csv(str(b), io.read_cell_csv(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,val\n0,0,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            io.read_cell_csv(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cells.csv"
        io.write_cell_csv(str(path), np.ones((3, 2)))
        with pytest.raises(ConfigError, match="expected"):
            io.read_cell_csv(str(path), 4, 2)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("i,j,value\n0,0,1.0\n1,1,2.0\n")
        with pytest.raises(ConfigError, match="missing"):
            io.read_cell_csv(str(path))


    @pytest.mark.parametrize("row", ["-1,1,99", "0,-1,99", "x,1,99",
                                     "0,1,nan?", "0,1", "0,1,2,3",
                                     "10000000,10000000,1", "3000,2000,5",
                                     "2,0,1", "0,2,1", "0,1,nan"])
    def test_malformed_row_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "cells.csv"
        path.write_text(f"i,j,value\n0,0,1.0\n1,0,1.0\n{row}\n"
                        "0,1,1.0\n1,1,1.0\n")
        with pytest.raises(ConfigError, match=f"{path.name}, line 4"):
            io.read_cell_csv(str(path), 2, 2)


    def test_row_outside_the_grid_allocates_nothing(self, tmp_path):
        # sizing the field by this row would ask for 728 TiB
        path = tmp_path / "lam.csv"
        path.write_text("i,j,value\n0,0,1\n10000000,10000000,1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=re.escape(
                    f"{path.name}, line 3: cell (10000000, 10000000) "
                    "outside the 2x2 grid")):
                io.read_cell_csv(str(path), 2, 2)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("shape", [(), (1, 1)], ids=["unsized", "sized"])
    def test_repeated_cell_rejected_naming_both_lines(self, tmp_path, shape):
        # unchecked, the second row overwrote the first: [[9.]]
        path = tmp_path / "lam.csv"
        path.write_text("i,j,value\n0,0,1\n0,0,9\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"lam.csv, line 3: a second row for (0, 0); the first is "
                f"at {path}, line 2")):
            io.read_cell_csv(str(path), *shape)


class TestFaceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        vx = rng(2).standard_normal((5, 3))
        vy = rng(3).standard_normal((4, 4))
        path = tmp_path / "faces.csv"
        io.write_face_csv(str(path), vx, vy)
        bx, by = io.read_face_csv(str(path))
        assert (bx == vx).all() and (by == vy).all()

    def test_missing_orientation_rejected(self, tmp_path):
        path = tmp_path / "faces.csv"
        path.write_text("orientation,i,j,flux\nx,0,0,1.0\n")
        with pytest.raises(ConfigError, match="orientation"):
            io.read_face_csv(str(path))


    def test_missing_face_rejected(self, tmp_path):
        path = tmp_path / "faces.csv"
        path.write_text("orientation,i,j,flux\nx,0,0,1.0\nx,1,1,1.0\n"
                        "y,0,0,1.0\n")
        with pytest.raises(ConfigError, match="missing x faces"):
            io.read_face_csv(str(path))

    @pytest.mark.parametrize("row", ["z,0,0,1.0", ",0,0,1.0", "x,-1,0,1.0",
                                     "y,0,a,1.0", "x,0,0", "x,0,0,1.0,2"])
    def test_malformed_row_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "faces.csv"
        path.write_text(f"orientation,i,j,flux\nx,0,0,1.0\n{row}\n"
                        "y,0,0,1.0\n")
        with pytest.raises(ConfigError, match=f"{path.name}, line 3"):
            io.read_face_csv(str(path))

    def test_repeated_face_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "faces.csv"
        path.write_text("orientation,i,j,flux\nx,0,0,1.0\ny,0,0,1.0\n"
                        "y,0,0,2.0\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"faces.csv, line 4: a second row for (0, 0); the first is "
                f"at {path}, line 3")):
            io.read_face_csv(str(path))


class FakeState:
    def __init__(self, t, C, V, P=None):
        self.t = t
        self.C = C
        self.V = V
        self.P = P


class TestAveragesCsv:
    def make_states(self):
        g = rng(4)
        states = []
        for k in range(3):
            C = g.random((2, 2))
            V = g.standard_normal((3, 2))
            states.append(FakeState(0.1 * k, C, V))
        return states

    def test_round_trip_values(self, tmp_path):
        states = self.make_states()
        path = tmp_path / "avg.csv"
        io.write_averages_csv(str(path), states, 2)
        back = io.read_averages_csv(str(path))
        assert len(back) == 3
        for s, b in zip(states, back):
            assert b.t == pytest.approx(s.t, abs=1e-15)
            assert (b.C == s.C).all()
            assert (b.V == s.V).all()

    def test_edge_rows_pinned(self, tmp_path):
        states = self.make_states()
        path = tmp_path / "avg.csv"
        io.write_averages_csv(str(path), states[:1], 2)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        edges = [(loc, k) for _t, kind, loc, k, _v in rows if kind == "V"]
        assert edges == [(f"x:{I}:0", str(k)) for I in range(3)
                         for k in range(2)]

    @pytest.mark.parametrize("loc", ["y:0:0", "x:1:1", "x:-1:0", "1:0"])
    def test_other_edge_locations_rejected(self, tmp_path, loc):
        path = tmp_path / "old.csv"
        path.write_text("time,kind,location,continuum,value\n"
                        "0,C,0:0,0,1\n0,V,x:0:0,0,1\n"
                        f"0,V,{loc},0,0\n")
        with pytest.raises(ConfigError, match=f"old.csv.*{loc}"):
            io.read_averages_csv(str(path))

    @pytest.mark.parametrize("kind", ["C", "P"])
    @pytest.mark.parametrize("loc", ["-1:0", "0:1", "3", "a:0", "1:0:0"])
    def test_other_block_locations_rejected(self, tmp_path, kind, loc):
        path = tmp_path / "old.csv"
        path.write_text("time,kind,location,continuum,value\n"
                        "0,C,0:0,0,1\n0,C,1:0,0,2\n0,V,x:0:0,0,1\n"
                        f"0,{kind},{loc},0,9\n")
        with pytest.raises(ConfigError, match=f"old.csv.*{loc}"):
            io.read_averages_csv(str(path))

    def test_golden_bytes(self, tmp_path):
        """Block rows stay I:0 for P arrays with absent continua and for
        mixed-model multipliers keyed per block or per (block, continuum)."""
        g = rng(7)
        C = g.random((3, 3, 2)) * np.pi
        V = g.standard_normal((3, 4, 2))
        P_arr = g.standard_normal((3, 2))
        P_arr[1, 0] = P_arr[2, 1] = np.nan
        per_block = g.standard_normal(3)
        per_pair = g.standard_normal((3, 2))
        Ps = [P_arr, {(I,): per_block[I] for I in range(3)},
              {(I, j): per_pair[I, j] for I in range(3) for j in range(2)
               if (I, j) != (1, 1)}]
        states = [FakeState(0.125 * k, C[k], V[k], Ps[k]) for k in range(3)]
        out = tmp_path / "avg.csv"
        io.write_averages_csv(str(out), states, 2)
        golden = os.path.join(os.path.dirname(__file__), "data",
                              "averages_golden.csv")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_pressure_dict_rows_written(self, tmp_path):
        states = self.make_states()
        states[0].P = {(0,): 1.5, (1,): -0.5}
        path = tmp_path / "avg.csv"
        io.write_averages_csv(str(path), states, 2)
        text = path.read_text()
        assert ",P,0:0,-1,1.5" in text

    @pytest.mark.parametrize("row, match", [
        ("0,C,0:0,-1,9", "line 4: C row of continuum -1"),
        ("0,V,x:0:0,-1,9", "line 4: V row of continuum -1"),
        ("0,P,0:0,-2,9", "line 4: P row of continuum -2"),
        ("0,V,x:0:0,2,9", "line 4: continuum 2 has no C rows"),
        ("0,C,0:0,1.5,9", "line 4: invalid literal"),
        ("0,C,0:0,one,9", "line 4: invalid literal"),
        ("0,C,0:0,1,nine", "line 4: could not convert"),
        ("zero,C,0:0,1,9", "line 4: could not convert"),
        ("0,C,0:0,1", "line 4: 4 fields, expected 5"),
    ], ids=["C-minus-one", "V-minus-one", "P-minus-two", "V-beyond-C",
            "float-continuum", "word-continuum", "word-value", "word-time",
            "short-row"])
    def test_bad_continuum_or_number_rejected(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,location,continuum,value\n"
                        f"0,C,0:0,0,1\n0,C,0:0,1,2\n{row}\n")
        with pytest.raises(ConfigError, match=f"bad.csv, {match}"):
            io.read_averages_csv(str(path))

    def test_series_without_c_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,location,continuum,value\n"
                        "0,V,x:0:0,0,1\n0,V,x:1:0,0,2\n")
        with pytest.raises(ConfigError, match="bad.csv: no C rows"):
            io.read_averages_csv(str(path))

    @pytest.mark.parametrize("kind, loc, k", [("C", "1:0", 1),
                                              ("V", "x:2:0", 0)])
    def test_missing_entry_rejected(self, tmp_path, kind, loc, k):
        # unchecked, a missing entry read back as 0.0
        path = tmp_path / "avg.csv"
        io.write_averages_csv(str(path), self.make_states(), 2)
        t = "0.20000000000000001"  # the last time
        lines = path.read_text().splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith(f"{t},{kind},{loc},{k},")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept))
        with pytest.raises(ConfigError, match=re.escape(
                f"avg.csv: no {kind} row at time {t}, {loc}, continuum {k}")):
            io.read_averages_csv(str(path))

    @pytest.mark.parametrize("row, line", [
        ("0,C,0:0,0,9", 2), ("0.0,V,x:1:0,0,9", 4), ("0,P,0:0,-1,9", 5)],
        ids=["C", "V", "P"])
    def test_repeated_entry_rejected(self, tmp_path, row, line):
        # unchecked, the second row overwrote the first: C read back 9;
        # "0.0" is the time "0" written another way
        path = tmp_path / "avg.csv"
        head = ("time,kind,location,continuum,value\n0,C,0:0,0,1\n"
                "0,V,x:0:0,0,1\n0,V,x:1:0,0,1\n0,P,0:0,-1,1\n")
        path.write_text(head)
        [state] = io.read_averages_csv(str(path))
        assert state.C.tolist() == [[1.0]]
        path.write_text(head + row + "\n")
        kind, loc, k = row.split(",")[1:4]
        with pytest.raises(ConfigError, match=re.escape(
                f"avg.csv, line 6: a second {kind} row at time 0, {loc}, "
                f"continuum {k}; the first is at {path}, line {line}")):
            io.read_averages_csv(str(path))

    @pytest.mark.parametrize("edges", [2, 4])
    def test_edges_must_be_blocks_plus_one(self, tmp_path, edges):
        path = tmp_path / "avg.csv"
        path.write_text("time,kind,location,continuum,value\n0,C,0:0,0,1\n"
                        "0,C,1:0,0,2\n" + "".join(
                            f"0,V,x:{I}:0,0,1\n" for I in range(edges)))
        with pytest.raises(ConfigError, match=f"avg.csv: {edges} edges for "
                           "2 blocks, expected 3"):
            io.read_averages_csv(str(path))

    def test_states_follow_their_time_rows(self, tmp_path):
        """Rows of several times, interleaved, land in their own state."""
        path = tmp_path / "avg.csv"
        path.write_text("time,kind,location,continuum,value\n"
                        "0.5,C,0:0,0,5\n0,C,0:0,0,1\n0.5,V,x:0:0,0,6\n"
                        "0,P,0:0,-1,7\n0,V,x:1:0,0,3\n0,V,x:0:0,0,2\n"
                        "0.5,P,0:0,0,8\n0.5,V,x:1:0,0,9\n")
        a, b = io.read_averages_csv(str(path))
        assert (a.step, a.t, b.step, b.t) == (0, 0.0, 1, 0.5)
        assert [s.C.ravel().tolist() + s.V.ravel().tolist()
                for s in (a, b)] == [[1, 2, 3], [5, 6, 9]]
        assert np.isnan(a.P).all() and b.P[0, 0] == 8

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "avg.csv"
        path.write_text("t,kind,loc,k,v\n")
        with pytest.raises(ConfigError, match="header"):
            io.read_averages_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "avg.csv"
        path.write_text("time,kind,location,continuum,value\n")
        with pytest.raises(ConfigError, match="no data"):
            io.read_averages_csv(str(path))


def test_manifest_contents(tmp_path):
    cfg = get_preset("smoke")
    path = tmp_path / "manifest.json"
    io.write_manifest(str(path), cfg, extra={"wall_time_s": 1.25})
    data = json.loads(path.read_text())
    assert data["name"] == "smoke"
    assert data["config_hash"] == cfg.config_hash()
    assert data["seeds"]["ic"] == cfg.ic_seed
    assert data["wall_time_s"] == 1.25
    assert "written_at" in data


def test_pgm_quicklook(tmp_path):
    path = tmp_path / "c.pgm"
    field = np.linspace(0, 1, 12).reshape(4, 3)
    io.write_pgm(str(path), field)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 3"  # width x height after transpose
    vals = [int(v) for row in lines[3:] for v in row.split()]
    assert min(vals) == 0 and max(vals) == 255


def test_ensure_dir_idempotent(tmp_path):
    target = tmp_path / "a" / "b"
    assert io.ensure_dir(str(target)) == str(target)
    assert io.ensure_dir(str(target)) == str(target)
    assert target.is_dir()
