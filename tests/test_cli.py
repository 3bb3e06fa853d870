"""End-to-end command tests: exit codes, text/JSON parity, written files."""

import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import crnf
from crnf import cli
from crnf.cli import main
from crnf.fileformat import parse_series, serialize_series
from crnf.series import ComplexSeries, RealSeries, to_complex_basis

X4 = "k=4 N=8 basis=xyu\n4 0 0 1/1\n"
X4_X5 = "k=4 N=8 basis=xyu\n4 0 0 1/1\n5 0 0 3/1\n"
X4_X7 = "k=4 N=8 basis=xyu\n4 0 0 1/1\n7 0 0 1/1\n"
ZK4 = "k=4 N=8 basis=zzu\n2 2 0 1/1 0/1\n"
# a tube model z^3 zbar + z zbar^3 + (3/2) |z|^4 with a tail, in the z, zbar basis
ZZ_TAIL = ("k=4 N=9 basis=zzu\n1 3 0 1/1 0/1\n3 1 0 1/1 0/1\n2 2 0 3/2 0/1\n"
           "2 3 0 1/3 1/5\n3 2 0 1/3 -1/5\n0 1 1 2/1 1/1\n1 0 1 2/1 -1/1\n")


def srs(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestAnalyze:
    def test_tube_text_report(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["analyze", srs(tmp_path, "f.srs", X4_X5)])
        assert rc == 0
        assert "k = 4" in out
        assert "essential type e = 1" in out
        assert "invariant L = 2" in out
        assert "tube model: yes" in out
        assert "tube form (leading x^k): yes" in out

    def test_json_matches_text(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X5)
        rc, out, _ = run(capsys, ["analyze", "--json", path])
        assert rc == 0
        rep = json.loads(out)
        assert rep == {"k": 4, "N": 8, "essential_type": 1, "invariant_L": 2,
                       "tube_model": True, "tube_form": True}

    def test_half_type_zzu(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["analyze", srs(tmp_path, "b.srs", ZK4)])
        assert rc == 0
        assert "essential type e = 2" in out
        assert "invariant L = undefined (2e = k)" in out
        assert "tube model: no" in out

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["analyze", str(tmp_path / "nope.srs")])
        assert rc == 2
        assert "error:" in err

    def test_malformed_series(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["analyze",
                                  srs(tmp_path, "f.srs", "k=4 N=8\n")])
        assert rc == 2
        assert "error:" in err


class TestTnormal:
    def test_writes_files_and_reports_shift(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        rc, out, _ = run(capsys, ["tnormal", path])
        assert rc == 0
        assert "A = 0/1" in out and "B = 0/1" in out
        assert "f: 0 1 0/1 -1/4" in out
        nf = (tmp_path / "f.tnf.srs").read_text()
        assert nf == X4
        mp = (tmp_path / "f.tnf.map").read_text()
        assert mp == "map k=4 N=8\nf\n0 1 0/1 -1/4\ng\n"

    def test_apply_reproduces_bytes(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        run(capsys, ["tnormal", path])
        rc, _, _ = run(capsys, ["apply", "--map",
                                str(tmp_path / "f.tnf.map"), path])
        assert rc == 0
        assert (tmp_path / "f.img.srs").read_bytes() == \
            (tmp_path / "f.tnf.srs").read_bytes()

    def test_targets_prescribe_constants(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        # negative values need the = form so argparse keeps the dash
        rc, out, _ = run(capsys, ["tnormal", "--target-A", "2",
                                  "--target-B=-1/3", path])
        assert rc == 0
        assert "A = 2/1" in out and "B = -1/3" in out
        nf = (tmp_path / "f.tnf.srs").read_text()
        assert "7 0 0 2/1" in nf and "7 1 0 -1/3" in nf
        rc, _, _ = run(capsys, ["check", "--form", "t",
                                str(tmp_path / "f.tnf.srs")])
        assert rc == 1

    def test_single_target_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["tnormal", "--target-A", "2",
                                  srs(tmp_path, "f.srs", X4)])
        assert rc == 2 and "together" in err

    def test_out_flag_names_files(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        rc, _, _ = run(capsys, ["tnormal", "--out",
                                str(tmp_path / "custom"), path])
        assert rc == 0
        assert (tmp_path / "custom.srs").exists()
        assert (tmp_path / "custom.map").exists()

    def test_unwritable_out_maps_to_2(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        rc, _, err = run(capsys, ["tnormal", "--out",
                                  str(tmp_path / "missing" / "custom"), path])
        assert rc == 2 and "cannot write" in err

    def test_stdin_needs_out(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(X4_X7))
        rc, _, err = run(capsys, ["tnormal", "-"])
        assert rc == 2 and "--out" in err

    def test_stdin_with_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(X4_X7))
        rc, _, _ = run(capsys, ["tnormal", "--out",
                                str(tmp_path / "s"), "-"])
        assert rc == 0
        assert (tmp_path / "s.srs").read_text() == X4

    def test_non_tube_leading_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["tnormal", srs(tmp_path, "b.srs", ZK4)])
        assert rc == 2 and "error:" in err


class TestRigidNt:
    def test_rigid_round_trip(self, tmp_path, capsys):
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n4 1 0 2/1\n"
        path = srs(tmp_path, "r.srs", text)
        rc, _, _ = run(capsys, ["rigid", path])
        assert rc == 0
        rc, out, _ = run(capsys, ["check", "--form", "rigid",
                                  str(tmp_path / "r.rgd.srs")])
        assert rc == 0 and "OK" in out

    def test_rigid_rejects_u_dependence(self, tmp_path, capsys):
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n2 0 1 1/1\n"
        rc, _, err = run(capsys, ["rigid", srs(tmp_path, "r.srs", text)])
        assert rc == 2 and "u" in err

    def test_nt_round_trip(self, tmp_path, capsys):
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n2 0 1 1/1\n"
        path = srs(tmp_path, "n.srs", text)
        rc, _, _ = run(capsys, ["nt", path])
        assert rc == 0
        rc, out, _ = run(capsys, ["check", "--form", "nt",
                                  str(tmp_path / "n.ntf.srs")])
        assert rc == 0 and "OK" in out

    def test_nt_rejects_y_dependence(self, tmp_path, capsys):
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n4 1 0 1/1\n"
        rc, _, err = run(capsys, ["nt", srs(tmp_path, "n.srs", text)])
        assert rc == 2 and "y" in err


class TestCheck:
    def test_t_holds(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["check", "--form", "t",
                                  srs(tmp_path, "f.srs", X4_X5)])
        assert rc == 0
        assert "form t: OK" in out

    def test_t_violation_listed(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4_X7)
        rc, out, _ = run(capsys, ["check", "--form", "t", path])
        assert rc == 1
        assert "1 violation" in out
        assert "X[2k-1,0] (7, 0, 0) -> 1/1" in out
        rc, out, _ = run(capsys, ["check", "--form", "t", "--json", path])
        assert rc == 1
        rep = json.loads(out)
        assert rep["holds"] is False
        assert rep["violations"] == [{"family": "X[2k-1,0]",
                                      "key": [7, 0, 0], "value": "1/1"}]

    def test_ko1_form_on_complex_input(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["check", "--form", "ko1-half",
                                  srs(tmp_path, "b.srs", ZK4)])
        assert rc == 0 and "OK" in out

    def test_ko1_tube_flags_a_pure_u_term(self, tmp_path, capsys):
        # Kolar's normal coordinates need F(z, 0, u) = 0, so 3u^2 violates them
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n0 0 2 3/1\n"
        rc, out, _ = run(capsys, ["check", "--form", "ko1-tube",
                                  srs(tmp_path, "f.srs", text)])
        assert rc == 1 and "Z[j,0]" in out

    def test_form_needing_tube_shape_rejects_bowl(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["check", "--form", "t",
                                  srs(tmp_path, "b.srs", ZK4)])
        assert rc == 2 and "error:" in err


class TestTubeEquiv:
    def test_pure_scaling_witness(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        g = srs(tmp_path, "g.srs", "k=4 N=8 basis=xyu\n4 0 0 16/1\n")
        rc, out, _ = run(capsys, ["tube-equiv", f, g])
        assert rc == 0
        assert "EQUIVALENT (order 8)" in out
        assert "a = 1/1" in out and "b = 0/1" in out and "c = 16/1" in out

    def test_inequivalent(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4_X5)
        g = srs(tmp_path, "g.srs", X4)
        rc, out, _ = run(capsys, ["tube-equiv", f, g])
        assert rc == 1
        assert out == "INEQUIVALENT (order 8)\n"
        rc, out, _ = run(capsys, ["tube-equiv", "--json", f, g])
        assert rc == 1
        assert json.loads(out) == {"equivalent": False, "order": 8}

    def test_radical_witness_text_and_json(self, tmp_path, capsys):
        ftext = ("k=4 N=12 basis=xyu\n4 0 0 1/1\n6 0 0 1/1\n7 0 0 4/1\n"
                 "8 0 0 1/1\n9 0 0 10/1\n10 0 0 22/1\n11 0 0 18/1\n"
                 "12 0 0 91/1\n")
        gtext = ("k=4 N=12 basis=xyu\n4 0 0 1/1\n6 0 0 1/2\n7 0 0 4/1\n"
                 "8 0 0 1/4\n9 0 0 5/1\n10 0 0 22/1\n11 0 0 9/2\n"
                 "12 0 0 91/2\n")
        f = srs(tmp_path, "f.srs", ftext)
        g = srs(tmp_path, "g.srs", gtext)
        rc, out, _ = run(capsys, ["tube-equiv", f, g])
        assert rc == 0
        assert "a = (2/1)^(1/2)" in out
        assert "b = p*a + q*a^k with p = -1/1, q = 1/1" in out
        assert "c = 4/1" in out
        assert "sign: ambiguous" in out
        rc, out, _ = run(capsys, ["tube-equiv", "--json", f, g])
        rep = json.loads(out)
        assert rep["a"] == {"kind": "radical", "base": "2/1",
                            "root_index": 2, "sign": 1}
        assert rep["b"] is None
        assert rep["b_parts"] == {"p": "-1/1", "q": "1/1"}
        assert rep["c"] == {"kind": "rational", "value": "4/1"}
        assert rep["factors"]["h1"] == "-1/1"
        assert rep["factors"]["delta"]["kind"] == "radical"

    def test_y_dependent_input_rejected(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs",
                "k=4 N=8 basis=xyu\n4 0 0 1/1\n4 1 0 1/1\n")
        g = srs(tmp_path, "g.srs", X4)
        rc, _, err = run(capsys, ["tube-equiv", f, g])
        assert rc == 2 and "error:" in err


class TestApply:
    def test_map_series_mismatch(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4)
        mp = tmp_path / "t.map"
        mp.write_text("map k=4 N=12\nf\ng\n")
        rc, _, err = run(capsys, ["apply", "--map", str(mp), path])
        assert rc == 2 and "disagree" in err

    def test_linear_map_refuses_a_term_below_weight_k(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4 + "2 0 0 1/1\n")
        mp = tmp_path / "l.map"
        mp.write_text("map k=4 N=8\nlinear delta=2/3 rot=1\nf\ng\n")
        rc, _, err = run(capsys, ["apply", "--map", str(mp), path])
        assert rc == 2 and "weight 2 < k = 4" in err

    def test_zzu_basis_preserved(self, tmp_path, capsys):
        F = parse_series("k=4 N=8 basis=xyu\n4 0 0 1/1\n7 0 0 1/1\n")
        path = srs(tmp_path, "c.srs", serialize_series(to_complex_basis(F)))
        rc, _, _ = run(capsys, ["tnormal", path])
        assert rc == 0
        out_series = parse_series((tmp_path / "c.tnf.srs").read_text())
        assert isinstance(out_series, ComplexSeries)
        rc, _, _ = run(capsys, ["apply", "--map",
                                str(tmp_path / "c.tnf.map"), path])
        assert rc == 0
        assert (tmp_path / "c.img.srs").read_bytes() == \
            (tmp_path / "c.tnf.srs").read_bytes()


class TestClassify:
    def test_tube_model(self, tmp_path, capsys):
        path = srs(tmp_path, "f.srs", X4)
        rc, out, _ = run(capsys, ["classify", path])
        assert rc == 0
        assert "class: RplusZ" in out
        assert "m = 2" in out
        assert "conditional: no" in out
        assert "linear delta=2/1 rot=0" in out
        rc, out, _ = run(capsys, ["classify", "--json", path])
        rep = json.loads(out)
        assert rep["class"] == "RplusZ" and rep["m"] == 2
        assert not rep["conditional"]
        assert {"type": "linear", "delta": "2/1", "rot": 0} in rep["generators"]
        assert {"type": "rotation", "order": 2, "power": 1,
                "delta": "1/1"} in rep["generators"]

    def test_bowl_is_three_dimensional(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["classify", srs(tmp_path, "b.srs", ZK4)])
        assert rc == 0
        assert "class: Dim3" in out

    def test_finite_cyclic(self, tmp_path, capsys):
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n6 0 0 1/1\n"
        rc, out, _ = run(capsys, ["classify", srs(tmp_path, "f.srs", text)])
        assert rc == 0
        assert "class: Zm" in out and "m = 2" in out


class TestZzuInput:
    ARGVS = (["analyze", "z.srs"], ["classify", "z.srs"], ["classify", "h.srs"],
             ["check", "--form", "ko1-tube", "z.srs"],
             ["check", "--form", "ko1-half", "h.srs"])

    def test_commands_never_convert_back(self, tmp_path, capsys, monkeypatch):
        # the parsed series of a zzu file is its hypersurface's complex form
        monkeypatch.chdir(tmp_path)
        srs(tmp_path, "z.srs", ZZ_TAIL)
        srs(tmp_path, "h.srs", ZK4)
        want = [run(capsys, argv) for argv in self.ARGVS]
        assert [rc for rc, _, _ in want] == [0, 0, 0, 1, 0]

        def refuse(f):
            raise AssertionError("converted back to the z, zbar basis")
        for module in (crnf.series, crnf.hypersurface, crnf.cli, crnf):
            monkeypatch.setattr(module, "to_complex_basis", refuse)
        assert [run(capsys, argv) for argv in self.ARGVS] == want


class TestBatchAndEnv:
    def test_multiple_files_need_each(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        g = srs(tmp_path, "g.srs", X4_X5)
        rc, _, err = run(capsys, ["analyze", f, g])
        assert rc == 2 and "--each" in err

    def test_each_text_headers(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        g = srs(tmp_path, "g.srs", X4_X5)
        rc, out, _ = run(capsys, ["analyze", "--each", f, g])
        assert rc == 0
        assert f"== {f} ==" in out and f"== {g} ==" in out

    def test_each_json_array(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        g = srs(tmp_path, "g.srs", X4_X5)
        rc, out, _ = run(capsys, ["analyze", "--json", "--each", f, g])
        rep = json.loads(out)
        assert [r["file"] for r in rep] == [f, g]
        assert all(r["k"] == 4 for r in rep)

    def test_each_isolates_errors(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        missing = str(tmp_path / "nope.srs")
        rc, out, _ = run(capsys, ["analyze", "--each", f, missing])
        assert rc == 2
        assert "tube model: yes" in out and "error:" in out
        rc, out, _ = run(capsys, ["analyze", "--json", "--each", f, missing])
        rep = json.loads(out)
        assert rc == 2
        assert "error" in rep[1] and rep[0]["k"] == 4

    def test_each_rejects_shared_out(self, tmp_path, capsys):
        f = srs(tmp_path, "f.srs", X4)
        g = srs(tmp_path, "g.srs", X4_X5)
        rc, _, err = run(capsys, ["tnormal", "--each", "--out",
                                  str(tmp_path / "o"), f, g])
        assert rc == 2 and "--out" in err

    def test_max_weight_cap(self, tmp_path, monkeypatch, capsys):
        path = srs(tmp_path, "f.srs", X4)
        monkeypatch.setenv("CRNF_MAX_WEIGHT", "6")
        rc, _, err = run(capsys, ["analyze", path])
        assert rc == 2 and "CRNF_MAX_WEIGHT" in err
        monkeypatch.setenv("CRNF_MAX_WEIGHT", "8")
        rc, _, _ = run(capsys, ["analyze", path])
        assert rc == 0
        monkeypatch.setenv("CRNF_MAX_WEIGHT", "lots")
        rc, _, err = run(capsys, ["analyze", path])
        assert rc == 2 and "integer" in err

    def test_frame_limit_maps_to_2(self, tmp_path, capsys):
        from crnf.series import FRAME_MAX_N
        # the witness check of tube-equiv runs in the frame; on a tube and
        # itself it is cheap at any N, so a missing limit fails fast here
        path = srs(tmp_path, "f.srs",
                   f"k=3 N={FRAME_MAX_N + 1} basis=xyu\n3 0 0 1/1\n4 0 0 1/1\n")
        rc, _, err = run(capsys, ["tube-equiv", path, path])
        assert rc == 2 and "limit" in err

    def test_singular_system_maps_to_3(self, tmp_path, monkeypatch, capsys):
        from crnf.errors import SingularSystemError

        def boom(H, targets=None):
            raise SingularSystemError("forced")

        monkeypatch.setattr("crnf.cli.t_normalize", boom)
        path = srs(tmp_path, "f.srs", X4)
        rc, _, err = run(capsys, ["tnormal", path])
        assert rc == 3 and "forced" in err
        rc, out, _ = run(capsys, ["tnormal", "--each", path, path])
        assert rc == 3 and out.count("error: forced") == 2

    def test_internal_error_maps_to_4(self, tmp_path, monkeypatch, capsys):
        from crnf.errors import InternalError

        def boom(H, targets=None):
            raise InternalError("forced")

        monkeypatch.setattr("crnf.cli.t_normalize", boom)
        path = srs(tmp_path, "f.srs", X4)
        rc, _, err = run(capsys, ["tnormal", path])
        assert rc == 4 and "forced" in err
        rc, out, _ = run(capsys, ["tnormal", "--each", path, path])
        assert rc == 4 and out.count("error: forced") == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no integer string conversion limit")
    def test_digit_limit_maps_to_2(self, tmp_path, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path = srs(tmp_path, "big.srs",
                       f"k=4 N=8 basis=xyu\n4 0 0 1/1\n5 0 0 {'7' * 5000}\n")
            rc, out, err = run(capsys, ["analyze", path])
        finally:
            sys.set_int_max_str_digits(old)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "PYTHONINTMAXSTRDIGITS" in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no integer string conversion limit")
    def test_integer_field_digit_limit_maps_to_2(self, tmp_path, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            header = srs(tmp_path, "n.srs", f"k=4 N={'9' * 5000} basis=xyu\n")
            exponent = srs(tmp_path, "j.srs", f"k=4 N=8 basis=xyu\n{'9' * 5000} 0 0 1/1\n")
            runs = [run(capsys, ["analyze", path]) for path in (header, exponent)]
        finally:
            sys.set_int_max_str_digits(old)
        for rc, out, err in runs:
            assert rc == 2 and out == ""
            assert "PYTHONINTMAXSTRDIGITS" in err and len(err) < 300


def full_parser_run(monkeypatch, argv, full):
    """(exit code, stdout, stderr) of main(argv); with full, main parses
    argv with the parser that holds the subparsers of every command,
    whatever argv names."""
    with monkeypatch.context() as m:
        if full:
            m.setattr(cli, "_parse_args",
                      lambda argv: cli._build_parser().parse_args(argv))
        out, err = io.StringIO(), io.StringIO()
        m.setattr(sys, "stdout", out)
        m.setattr(sys, "stderr", err)
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = ("exit", exc.code)
    return rc, out.getvalue(), err.getvalue()


SURFACE = [[], ["--help"], ["-h"], ["bogus"], ["bogus", "f.srs"], ["--bad"],
           ["--", "tnormal", "f.srs"], ["--json", "tnormal", "f.srs"],
           ["check", "f.srs"], ["check", "--form", "zz", "f.srs"],
           ["check", "--form", "t", "f.srs"], ["tube-equiv", "f.srs"],
           ["tube-equiv", "f.srs", "f.srs"], ["apply", "f.srs"],
           ["apply", "--map", "f.tnf.map", "f.srs", "--out", "rt"],
           ["tnormal", "--target-A", "1/2", "f.srs"],
           ["tnormal", "f.srs", "f.srs"], ["tnormal", "--json", "f.srs"],
           ["check", "--fo", "t", "f.srs"], ["check", "--form=t", "f.srs"],
           ["tnormal", "--js", "f.srs"], ["classify", "f.srs", "--json"],
           ["tnormal", "--", "f.srs"], ["tube-equiv", "f.srs", "f.srs", "g.srs"],
           ["analyze", "f.srs", "--bad", "g.srs", "-x"]]
SURFACE += [[cmd, *rest] for cmd in cli._COMMANDS
            for rest in ([], ["--help"], ["-h"], ["--bad", "f.srs"],
                         ["f.srs"], ["--json", "--each", "f.srs", "g.srs"])]


class TestSurface:
    @pytest.mark.parametrize("argv", SURFACE, ids=" ".join)
    def test_same_as_with_every_subparser(self, argv, tmp_path, monkeypatch):
        # argparse words its texts differently across Python versions, so
        # each argv is compared with a parser that has every subparser
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        (tmp_path / "f.srs").write_text(X4_X7)
        (tmp_path / "g.srs").write_text(X4_X5)
        main(["tnormal", "f.srs"])
        got = full_parser_run(monkeypatch, argv, full=False)
        want = full_parser_run(monkeypatch, argv, full=True)
        assert got == want

    def test_builds_the_named_subparser_alone(self, capsys):
        # the parser of a named command knows no other command: the argv of
        # apply (of check, for apply itself) is an error there, though the
        # full parser reads it as that command
        argvs = {"apply": ["--map", "f.tnf.map", "f.srs"],
                 "check": ["--form", "t", "f.srs"]}
        for name in cli._COMMANDS:
            parser = cli._command_parser(name)
            assert parser.prog == f"crnf {name}" and parser.description is None
            assert not any(isinstance(a, argparse._SubParsersAction)
                           for a in parser._actions)
            other = "apply" if name != "apply" else "check"
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argvs[other])
            assert exc.value.code == 2 and "error:" in capsys.readouterr().err
            assert cli._build_parser().parse_args([other, *argvs[other]]).command == other


class TestScriptEntry:
    def run_module(self, tmp_path, *args):
        # the child imports the same crnf as this process, installed or not
        src = os.path.dirname(os.path.dirname(crnf.__file__))
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "crnf.cli", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)

    def test_module_invocation(self, tmp_path):
        path = srs(tmp_path, "f.srs", X4)
        proc = self.run_module(tmp_path, "analyze", path)
        assert proc.returncode == 0
        assert "tube model: yes" in proc.stdout

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # the reader takes one line and closes the pipe, as `| head -1` does;
        # the output (~160 KB) outgrows the pipe, so the CLI is still
        # writing then.  The last file is missing, so the command's own exit
        # code is 2, not the 0 or 1 of a broken pipe.
        srs(tmp_path, "f.srs", X4)
        src = os.path.dirname(os.path.dirname(crnf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        argv = ["analyze", "--each"] + ["f.srs"] * 1500 + ["missing.srs"]
        with subprocess.Popen([sys.executable, "-m", "crnf.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, cwd=tmp_path) as proc:
            assert proc.stdout.readline() == b"== f.srs ==\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        assert err == b""

    def test_fresh_process_reads_sys_argv(self, tmp_path, monkeypatch, capsys):
        # main() without argv, as the console script calls it
        monkeypatch.setenv("COLUMNS", "80")
        srs(tmp_path, "f.srs", X4_X7)
        proc = self.run_module(tmp_path, "tnormal", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        with pytest.raises(SystemExit) as exc:
            main(["tnormal", "--help"])
        assert exc.value.code == 0
        assert proc.stdout == capsys.readouterr().out
        proc = self.run_module(tmp_path, "tnormal", "f.srs")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "wrote f.tnf.srs" in proc.stdout
        assert (tmp_path / "f.tnf.srs").read_text() == X4
