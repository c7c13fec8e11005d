"""End-to-end command-line runs: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phasewave
from phasewave.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWignerCommand:
    def test_vacuum_field_value_at_origin(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, _, _ = run(
            capsys, "--out", str(out),
            "wigner", "--state", "vacuum", "--grid", "-4:4:81",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,w"
        rows = [line.split(",") for line in lines[1:]]
        origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert len(origin) == 1
        assert float(origin[0][2]) == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_method_both_summary_deviation(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, stdout, _ = run(
            capsys, "--out", str(out),
            "wigner", "--state", "fock:1", "--grid", "-4:4:81", "--method", "both",
        )
        assert code == 0
        assert (tmp_path / "w.parity.csv").exists()
        deviation = float(stdout.strip().split("=")[1])
        assert deviation < 1e-6

    def test_method_both_requires_out(self, capsys):
        # refused before either route runs: on coherent:2 the parity route's
        # corner check would fail the truncation with exit 3
        for state, extra in (("vacuum", ()), ("coherent:2", ("--n-max", "40"))):
            code, out, err = run(
                capsys, "wigner", "--state", state, "--grid", "-7:7:3",
                "--method", "both", *extra,
            )
            assert (code, out) == (2, "")
            assert "needs --out" in err

    def test_malformed_state_rejected(self, capsys):
        for method in ("direct", "both"):  # before a missing --out
            code, _, err = run(capsys, "wigner", "--state", "squeezed:1", "--grid", "-2:2:5",
                               "--method", method)
            assert code == 2
            assert "state spec" in err

    @pytest.mark.parametrize("state, message", [
        ("fock:-1", "malformed state spec 'fock:-1': Fock index must be nonnegative"),
        ("coherent:1,2,3", "malformed state spec 'coherent:1,2,3': bad coherent amplitude "
                           "in 'coherent:1,2,3'"),
        ("squeezed:1", "unknown state spec 'squeezed:1'"),
        ("mixture:fock:1", "mixture component 'fock:1' lacks a @weight"),
        ("mixture:fock:1@abc", "malformed state spec 'fock:1@abc': could not convert string "
                               "to float: 'abc'"),
        ("coherent:2j", "malformed state spec 'coherent:2j': could not convert string to "
                        "float: '2j'"),
        ("mixture:vacuum@1;fock:20000@1", "malformed state spec 'fock:20000': truncation "
                                          "n_max=20000 exceeds the limit of 10000"),
    ])
    def test_refused_state_messages(self, capsys, state, message):
        code, out, err = run(capsys, "wigner", "--state", state, "--grid", "-7:7:11")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_direct_route_refuses_a_truncation(self, capsys):
        # --n-max sets the parity route's corner checks only, so the direct route refuses it
        code, out, err = run(capsys, "wigner", "--state", "vacuum", "--grid", "-2:2:3",
                             "--method", "direct", "--n-max", "40")
        assert (code, out, err) == (2, "", "error: --n-max sets the parity route's "
                                           "truncation; --method direct runs no parity route\n")

    def test_truncation_only_refuses(self, capsys, tmp_path):
        # the parity field's bytes do not depend on --n-max: it can only make the
        # corner checks refuse the grid
        argv = ["wigner", "--state", "coherent:2", "--grid", "-6:6:81", "--method", "parity"]
        written = []
        for extra in ((), ("--n-max", "900"), ("--n-max", "3000")):
            out = tmp_path / f"w{len(written)}.csv"
            assert run(capsys, "--out", str(out), *argv, *extra) == (0, "", "")
            written.append(out.read_bytes())
        assert written[1:] == written[:1] * 2
        code, _, err = run(capsys, "--out", str(tmp_path / "w.csv"), *argv, "--n-max", "100")
        assert code == 3
        assert "increase n_max" in err
        assert not (tmp_path / "w.csv").exists()

    def test_malformed_grid_rejected(self, capsys):
        for method in ("direct", "both"):  # before a missing --out
            code, _, err = run(capsys, "wigner", "--state", "vacuum", "--grid", "-2:2",
                               "--method", method)
            assert code == 2
            assert "not min:max:count" in err

    @pytest.mark.parametrize("method", ["direct", "parity"])
    def test_grid_axis_repeating_a_node_rejected(self, capsys, tmp_path, method):
        # np.linspace gives the nodes [1.0, 1.0, 1.0000000000000002] and [0, 0, 5e-324]
        out = tmp_path / "w.csv"
        for axis in ("1:1.0000000000000002:3", "0:5e-324:3"):
            code, _, err = run(capsys, "--out", str(out), "wigner", "--state", "vacuum",
                               "--grid", axis, "--grid-v", "-1:1:3", "--method", method)
            assert code == 2 and "error: the u axis repeats a node" in err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["0:5e-324:2", "0:1e-320:2", "-1e-310:1e-310:2"])
    def test_subnormal_two_node_axis_computes(self, capsys, tmp_path, axis):
        out = tmp_path / "w.csv"
        code, stdout, err = run(capsys, "--out", str(out), "wigner", "--state", "vacuum",
                                "--grid", axis, "--grid-v", "-1:1:3", "--method", "both")
        assert code == 0, err
        assert float(stdout.strip().split("=")[1]) < 1e-12
        for path in (out, tmp_path / "w.parity.csv"):
            assert run(capsys, "validate", "--kind", "wigner", str(path))[0] == 0

    def test_empty_v_grid_rejected(self, capsys):
        # an empty --grid-v is a malformed spec, not an absent one
        code, out, err = run(capsys, "wigner", "--state", "vacuum", "--grid", "-1:1:3",
                             "--grid-v", "", "--method", "parity")
        assert (code, out, err) == (2, "", "error: grid spec '' is not min:max:count\n")

    def test_route_disagreement_fails_numerically(self, capsys, tmp_path, monkeypatch):
        # one parity node moved by 1e-5: exit 3 naming the deviation and that node,
        # and neither file written
        from phasewave import wigner

        exact = wigner.wigner_parity

        def perturbed(rho, grid, n_max=None):
            values = [list(row) for row in exact(rho, grid, n_max).values]
            values[2][1] += 1e-5
            return wigner.WignerField(grid, values)

        monkeypatch.setattr(wigner, "wigner_parity", perturbed)
        out = tmp_path / "w.csv"
        code, stdout, err = run(capsys, "--out", str(out), "wigner", "--state", "fock:1",
                                "--grid", "-2:2:3", "--grid-v", "-1:1:5", "--method", "both")
        assert (code, stdout) == (3, "")
        assert err == ("numerical failure: the direct and parity routes disagree at "
                       "(u, v) = (2.0, -0.5): |dW| = 1.000e-05 exceeds 1e-06\n")
        assert list(tmp_path.iterdir()) == []

    def test_parity_underflow_beyond_its_range_fails_numerically(self, capsys, tmp_path):
        # |2 alpha| = 40 at the centre of coherent:20: the parity route's Laguerre start
        # underflows there, and the route check refuses what it returns
        out = tmp_path / "o.csv"
        code, stdout, err = run(capsys, "--out", str(out), "wigner", "--state", "coherent:20",
                                "--grid", "27.784:28.784:3", "--grid-v", "-0.5:0.5:3",
                                "--method", "both")
        assert (code, stdout) == (3, "")
        assert "routes disagree" in err
        assert list(tmp_path.iterdir()) == []

    def test_parity_route_refuses_its_own_underflow(self, capsys, tmp_path):
        # the same grid under --method parity alone: its corner (28.784, -0.5) reads
        # a Royer value 0.14 off the occupation sum there, so no file is written
        out = tmp_path / "o.csv"
        code, stdout, err = run(capsys, "--out", str(out), "wigner", "--state", "coherent:20",
                                "--grid", "27.784:28.784:3", "--grid-v", "-0.5:0.5:3",
                                "--method", "parity")
        assert (code, stdout) == (3, "")
        assert err == ("numerical failure: the Royer and occupation routes disagree at "
                       "(u, v) = (28.784, -0.5): |dW| = 1.398e-01 exceeds 1e-06\n")
        assert list(tmp_path.iterdir()) == []

    def test_unconverged_alternating_sum_fails_numerically(self, capsys, tmp_path,
                                                           monkeypatch):
        from phasewave import fock

        exact = fock._displaced_occupations

        def heavy_tail(rho, alphas, n_max=None):
            p = exact(rho, alphas, n_max)
            p[:, -1] = 1e-7
            return p

        monkeypatch.setattr(fock, "_displaced_occupations", heavy_tail)
        code, stdout, err = run(capsys, "--out", str(tmp_path / "w.csv"), "wigner",
                                "--state", "vacuum", "--grid", "-1:1:3", "--method", "parity")
        assert (code, stdout) == (3, "")
        assert err.startswith("numerical failure: alternating sum not converged: last term "
                              "1.000e-07")
        assert list(tmp_path.iterdir()) == []

    def test_containment_warning_is_one_line(self, capsys, tmp_path):
        code, _, err = run(capsys, "--out", str(tmp_path / "w.csv"), "wigner",
                           "--state", "coherent:2", "--grid", "-2:2:5")
        assert code == 0
        assert err == ("warning: state radius 7.35 exceeds 1.2x grid extent 2.00; "
                       "normalization will fall short\n")

    def test_undersized_truncation_fails_numerically(self, capsys, tmp_path):
        # the second fails the row-sum check: its truncation is certified at the
        # corners, but the vacuum's displaced tail past 101 exceeds EPS_TAIL
        out = tmp_path / "w.csv"
        for state, grid, n_max in (("fock:1", "-6:6:5", "40"),
                                   ("vacuum", "-7.097:7.097:3", "101")):
            code, stdout, err = run(capsys, "--out", str(out), "wigner", "--state", state,
                                    "--grid", grid, "--method", "parity", "--n-max", n_max)
            assert (code, stdout) == (3, "")
            assert "increase n_max" in err
            assert list(tmp_path.iterdir()) == []

    def test_mixture_state_accepted(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "--format", "json", "--out", str(out),
            "wigner", "--state", "mixture:vacuum@0.5;fock:1@0.5",
            "--grid", "-3:3:11", "--method", "parity",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["grid"]["n_u"] == 11

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "--format", "json", "--out", str(out),
            "wigner", "--state", "vacuum", "--grid", "-2:2:5",
            "--grid-v", "-3:3:7",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["grid"]["n_v"] == 7


class TestOverlapCommand:
    def test_csv_columns(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, _, _ = run(capsys, "--out", str(out), "overlap", "--beta", "5")
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,p_overlap,p_poisson"

    def test_beta5_mean_window(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        code, _, _ = run(
            capsys, "--format", "json", "--out", str(out), "overlap", "--beta", "5"
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert 23.75 <= obj["overlap_mean"] <= 26.25

    def test_vacuum_distance_zero(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        run(capsys, "--format", "json", "--out", str(out), "overlap", "--beta", "0")
        assert json.loads(out.read_text())["tv_distance"] == 0.0

    def test_negative_beta_rejected(self, capsys):
        code, _, _ = run(capsys, "overlap", "--beta", "-1")
        assert code == 2

    def test_band_count_option_removed(self, capsys, tmp_path):
        # the table ends where the disc does; padding it only appended zeros
        out = tmp_path / "o.csv"
        code, _, _ = run(capsys, "--out", str(out), "overlap", "--beta", "1", "--n-bands", "40")
        assert code == 2
        assert not out.exists()

    def test_json_fields(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        run(capsys, "--format", "json", "--out", str(out), "overlap", "--beta", "2")
        obj = json.loads(out.read_text())
        assert list(obj.keys()) == [
            "beta",
            "overlap_mean",
            "poisson_mean",
            "overlap_variance",
            "poisson_variance",
            "tv_distance",
            "table",
        ]
        assert list(obj["table"][0].keys()) == ["n", "p_overlap", "p_poisson"]

    def test_csv_header_and_rows(self, capsys, tmp_path):
        from phasewave import compare_poisson

        out = tmp_path / "o.csv"
        run(capsys, "--out", str(out), "overlap", "--beta", "1")
        lines = out.read_text().splitlines()
        assert lines[0] == "n,p_overlap,p_poisson"
        assert len(lines) == len(compare_poisson(1.0).p_overlap) + 1


class TestFresnelCommand:
    GEOM = ["fresnel", "--r0", "100", "--b", "100", "--lambda", "1"]

    def test_zone_table_and_slope(self, capsys, tmp_path):
        out = tmp_path / "z.csv"
        code, stdout, _ = run(
            capsys, "--out", str(out), *self.GEOM, "zones", "--n", "100"
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,rho,re_Un,im_Un,abs_Un,phase_Un"
        assert len(lines) == 101
        slope = float(stdout.strip().split("=")[1])
        assert slope == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("argv, key", [
        (("zones", "--n", "5"), "slope_loglog"),
        (("--format", "json", "zones", "--n", "5"), "slope_loglog"),
        (("zonesum", "--n", "4"), "abs_U"),
    ], ids=["zones-csv", "zones-json", "zonesum"])
    def test_echo_follows_the_file_text_on_stdout(self, capsys, tmp_path, argv, key):
        # without --out, stdout holds what --out would, then the one key=value line
        out = tmp_path / "f.txt"
        code, echo, _ = run(capsys, "--out", str(out), *self.GEOM, *argv)
        assert code == 0
        assert re.fullmatch(rf"{key}=[^\n]+\n", echo)
        assert run(capsys, *self.GEOM, *argv) == (0, out.read_text() + echo, "")

    def test_zonesum_averaged_oracle(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, stdout, _ = run(
            capsys, "--out", str(out), *self.GEOM,
            "zonesum", "--n", "200",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        free = obj["U_free"]["abs"]
        assert abs(obj["U_zone_sum_averaged"]["abs"] - free) / free < 0.01
        assert abs(float(stdout.strip().split("=")[1]) - free) / free < 0.01

    def test_integral_summary_fields(self, capsys, tmp_path):
        out = tmp_path / "i.json"
        code, _, _ = run(
            capsys, "--out", str(out), *self.GEOM, "zonesum", "--n", "120"
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert list(obj.keys()) == [
            "geometry", "U_free", "U_integral",
            "U_zone_sum_raw", "U_zone_sum_averaged",
        ]

    def test_plate_focus_ratio(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, stdout, _ = run(
            capsys, "--out", str(out), *self.GEOM, "plate", "--open", "odd", "--n", "20"
        )
        assert code == 0
        assert float(stdout.strip().split("=")[1]) > 5.0
        obj = json.loads(out.read_text())
        assert obj["open_zones"] == list(range(1, 40, 2))

    def _field(self, capsys, tmp_path, *action):
        out = tmp_path / "f.json"
        assert run(capsys, "--out", str(out), *self.GEOM, *action)[0] == 0
        obj = json.loads(out.read_text())
        key = "U_plate" if action[0] == "plate" else "U_zone_sum_raw"
        return complex(obj[key]["re"], obj[key]["im"]), out.read_bytes()

    def test_plate_masks(self, capsys, tmp_path):
        # every zone open is the raw zone sum, and a comma list is sorted and
        # deduplicated into the odd mask's file, bit for bit
        u_all, _ = self._field(capsys, tmp_path, "plate", "--open", "all", "--n", "30")
        assert u_all == self._field(capsys, tmp_path, "zonesum", "--n", "30")[0]
        odd = self._field(capsys, tmp_path, "plate", "--open", "odd", "--n", "3")
        assert self._field(capsys, tmp_path, "plate", "--open", "5,1,3,3", "--n", "3") == odd
        # the first 15 odd and 15 even zones are the first 30 (1.3e-14 apart)
        u_odd, _ = self._field(capsys, tmp_path, "plate", "--open", "odd", "--n", "15")
        u_even, _ = self._field(capsys, tmp_path, "plate", "--open", "even", "--n", "15")
        assert abs(u_odd + u_even - u_all) <= 1e-13 * abs(u_all)

    def test_invalid_geometry_rejected(self, capsys):
        code, _, _ = run(
            capsys, "fresnel", "--r0", "-5", "--b", "100", "--lambda", "1",
            "zones", "--n", "10",
        )
        assert code == 2

    @pytest.mark.parametrize("r0, b", [("1e12", "1e12"), ("1e12", "10"), ("1e15", "10")])
    @pytest.mark.parametrize("action", [
        ("zones", "--n", "3"),
        ("zonesum", "--n", "50"),
        ("plate", "--open", "odd", "--n", "25"),
    ], ids=["zones", "zonesum", "plate"])
    def test_far_source_geometries_compute(self, capsys, tmp_path, r0, b, action):
        # (r0^2 + (r0 + b)^2)/(b * wavelength) reaches 2e29 here, where a
        # law-of-cosines solve rounds every boundary angle away
        out = tmp_path / "f.txt"
        code, _, err = run(capsys, "--out", str(out), "fresnel", "--r0", r0, "--b", b,
                           "--lambda", "1", *action)
        assert (code, err) == (0, "")
        assert run(capsys, "validate", "--kind", "zones", str(out)) == (0, "ok\n", "")
        if action[0] == "zonesum":
            obj = json.loads(out.read_text())
            free = obj["U_free"]["abs"]
            assert abs(obj["U_zone_sum_averaged"]["abs"] - free) / free < 0.01

    def test_single_zone_summary_rejected(self, capsys):
        # the summary always carries the averaged sum, which needs two zones
        code, _, err = run(capsys, *self.GEOM, "zonesum", "--n", "1")
        assert code == 2
        assert "two zones" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_single_zone_table_rejected(self, capsys, tmp_path, fmt):
        # the slope fit needs two boundaries; no table is written without it
        out = tmp_path / "z1"
        code, stdout, err = run(capsys, "--format", fmt, "--out", str(out), *self.GEOM,
                                "zones", "--n", "1")
        assert code == 2
        assert "at least two boundaries" in err
        assert stdout == ""
        assert not out.exists()

    def test_oversized_quadrature_rejected(self, capsys):
        # r0 = b = 1e15 wavelengths holds 4e15 zones; no grid that size fits
        code, _, err = run(capsys, "fresnel", "--r0", "1e15", "--b", "1e15",
                           "--lambda", "1", "zonesum", "--n", str(10**15))
        assert code == 2
        assert "exceed the limit" in err

    @pytest.mark.parametrize("mask, count, message", [
        ("odd", "-1", "zone count must be nonnegative"),
        ("1,x", "3", "bad zone mask '1,x': invalid literal for int() with base 10: 'x'"),
        ("-1", "3", "zone indices must be nonnegative"),
    ], ids=["negative-count", "non-integer", "negative-zone"])
    def test_refused_plate_masks(self, capsys, mask, count, message):
        code, out, err = run(capsys, *self.GEOM, "plate", "--open", mask, "--n", count)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [
        ("integral", "--zones", "3"),
        ("zonesum", "--n", "3", "--mode", "raw"),
        ("integral", "--zones", "3", "--no-taper"),
        ("zones", "--n", "5", "--nodes", "16"),
    ])
    def test_removed_options_rejected(self, capsys, tmp_path, action):
        # zonesum writes the integral and both zone sums in one summary, so no
        # subaction or switch re-selects one of them; every zone term takes
        # NODES_PER_ZONE nodes
        out = tmp_path / "f.json"
        code, _, _ = run(capsys, "--out", str(out), *self.GEOM, *action)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--amplitude", "2", "zonesum", "--n", "3"),
        ("zonesum", "--n", "3", "--amplitude", "2"),
    ], ids=["before-subaction", "after-subaction"])
    def test_amplitude_option_removed(self, capsys, tmp_path, argv):
        # the CLI's geometry keeps FresnelGeometry's default amplitude, 1.0, which
        # every summary still writes; the library's amplitude keeps its limits
        out = tmp_path / "f.json"
        code, stdout, err = run(capsys, "--out", str(out), *self.GEOM, *argv)
        assert (code, stdout) == (2, "")
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()


class TestSpinCommand:
    def test_half_spin_two_rows(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        code, _, _ = run(capsys, "--out", str(out), "spin", "--j", "0.5", "belts")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,z_lo,z_hi,area"
        assert len(lines) == 3

    def test_project_matches_library(self, capsys, tmp_path):
        from phasewave import band_table

        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "--out", str(out), "spin", "--j", "200", "project")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,rho_lo,rho_hi,area"
        rows = [line.split(",") for line in lines[1:]]
        table = band_table(200.0)
        assert len(rows) == len(table) == 401
        for row, ref in zip(rows[:12], table[:12]):
            assert float(row[2]) == ref[2]
            assert float(row[3]) == ref[3]

    def test_areas_monotone_below_quantum(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "--out", str(out), "spin", "--j", "200", "project")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        areas = np.array([float(r[4]) for r in rows])
        n_south = areas[1:201]
        assert np.all(np.diff(n_south) < 0)
        assert np.all(n_south < 2.0 * math.pi)

    def test_invalid_j_rejected(self, capsys):
        code, _, _ = run(capsys, "spin", "--j", "0.3", "belts")
        assert code == 2

    def test_projection_of_j0_rejected(self, capsys):
        # R = 0 leaves the 1/sqrt(R) plane scale undefined
        code, _, err = run(capsys, "spin", "--j", "0", "project")
        assert code == 2
        assert err.startswith("error:")

    def test_global_flags_accepted_after_subcommand(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        code, _, _ = run(capsys, "spin", "--j", "1", "belts", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("m,z_lo,z_hi,area")

    @pytest.mark.parametrize("before, after, written", [
        (("--out", "x"), (), "x"),
        ((), ("--out", "y"), "y"),
        (("--out", "x"), ("--out", "y"), "y"),
    ])
    def test_global_out_on_either_side(self, capsys, tmp_path, monkeypatch, before, after,
                                       written):
        # no parser resets a value that an earlier one parsed; the last --out wins
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *before, "spin", "--j", "1", "belts", *after) == (0, "", "")
        assert [path.name for path in tmp_path.iterdir()] == [written]

    def test_global_format_between_subcommands(self, capsys):
        code, out, _ = run(capsys, "fresnel", "--r0", "100", "--b", "100", "--lambda", "1",
                           "--format", "json", "zones", "--n", "3")
        assert code == 0
        assert out.startswith('{"slope_loglog": ')


@pytest.mark.parametrize("argv", [
    ("overlap", "--beta", "inf"),
    ("spin", "--j", "inf", "belts"),
    ("wigner", "--state", "coherent:inf", "--grid", "-1:1:3"),
    ("wigner", "--state", "mixture:vacuum@nan;fock:1@1", "--grid", "-1:1:3"),
    ("wigner", "--state", "mixture:vacuum@inf;fock:1@1", "--grid", "-1:1:3"),
    ("wigner", "--state", "fock:1", "--grid", "-1:1:3", "--method", "parity",
     "--n-max", "-5"),
    ("wigner", "--state", "mixture:fock:1@1e308;fock:2@1e308", "--grid", "-1:1:3"),
    ("fresnel", "--r0", "inf", "--b", "1000", "--lambda", "1", "zones", "--n", "3"),
    ("fresnel", "--r0", "nan", "--b", "1000", "--lambda", "1", "zones", "--n", "3"),
    # a negative value in exponent form reaches the range check, not argparse
    ("overlap", "--beta", "-1e-5"),
    ("spin", "--j", "-1e-3", "belts"),
    # finite bounds whose span overflows a double
    ("wigner", "--state", "fock:1", "--grid", "-1e308:1e308:3", "--method", "parity"),
    ("wigner", "--state", "fock:1", "--grid", "-1:1:3", "--grid-v", "-1e308:1e308:3"),
])
def test_nonfinite_and_negative_numbers_rejected(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert err.count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, limit", [
    (("overlap", "--beta", "1e200"), "limit of 1000000"),
    (("overlap", "--beta", "1000"), "limit of 1000000"),
    (("wigner", "--state", "coherent:1e200", "--grid", "-1:1:3"), "limit of 10000"),
    (("wigner", "--state", "vacuum", "--grid", "-80:80:3", "--method", "parity"),
     "limit of 10000"),
    (("wigner", "--state", "fock:20000", "--grid", "-1:1:3"), "limit of 10000"),
    (("wigner", "--state", "mixture:vacuum@1;fock:10001@1", "--grid", "-1:1:3"),
     "limit of 10000"),
    (("wigner", "--state", "vacuum", "--grid", "-1:1:2001"), "limit of 4000000"),
    (("wigner", "--state", "vacuum", "--grid", "-1:1:2", "--grid-v", "-1:1:2000001"),
     "limit of 4000000"),
    (("wigner", "--state", "fock:1", "--grid", "-1:1:3", "--method", "parity",
      "--n-max", "10001"), "limit of 10000"),
    (("fresnel", "--r0", "1e155", "--b", "1e155", "--lambda", "1", "zones", "--n", "3"),
     "limit of 1e+15"),
    (("fresnel", "--r0", "1000", "--b", "1e16", "--lambda", "1", "zones", "--n", "3"),
     "limit of 1e+15"),
    (("spin", "--j", "1e12", "belts"), "limit of 1000000"),
    (("wigner", "--state", "vacuum", "--grid", "-1e5:1e5:3"), "limit of 1000000"),
    (("wigner", "--state", "vacuum", "--grid", "-1:1:3", "--grid-v", "-1e300:1e300:3"),
     "limit of 1000000"),
])
def test_oversized_numbers_rejected_before_allocation(capsys, argv, limit):
    # each budget is pure arithmetic on the request, so nothing is allocated
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert limit in err
    assert "Traceback" not in err


def test_plate_mask_is_refused_before_it_is_built():
    # a child limited to 1 GiB of address space could not hold 10**8 open zones
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from phasewave.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    argv = ["fresnel", "--r0", "100", "--b", "100", "--lambda", "1",
            "plate", "--open", "odd", "--n", "100000000"]
    result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.count("\n") == 1
    assert "exceed the limit of 4000000 quadrature points" in result.stderr


_DIFFERS = "round-trip re-serialization differs from the file at line"
_UNTYPED = "is not a finite value of its writer's type"


class TestValidateAndDeterminism:
    def _both_runs(self, capsys, tmp_path, name, *argv):
        a, b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        assert run(capsys, "--out", str(a), *argv)[0] == 0
        assert run(capsys, "--out", str(b), *argv)[0] == 0
        return a.read_bytes(), b.read_bytes()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cases = [
            ("w", "wigner", "--state", "coherent:1", "--grid", "-6:6:15"),
            ("o", "overlap", "--beta", "2"),
            ("z", "fresnel", "--r0", "100", "--b", "100", "--lambda", "1",
             "zones", "--n", "30"),
            ("s", "spin", "--j", "10", "project"),
        ]
        for name, *argv in cases:
            first, second = self._both_runs(capsys, tmp_path, name, *argv)
            assert first == second, name

    def test_validate_rejects_nan_value(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("u,v,w\n-1,-1,nan\n-1,1,0\n1,-1,0\n1,1,0\n")
        code, _, err = run(capsys, "validate", "--kind", "wigner", str(path))
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_validate_rejects_nonfinite_json_literal(self, capsys, tmp_path, literal):
        # json.dumps writes these literals and reads them back unchanged
        path = tmp_path / "z.json"
        path.write_text('{"slope_loglog": %s, "zones": []}\n' % literal)
        code, stdout, err = run(capsys, "validate", "--kind", "zones", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert stdout == ""

    def test_validate_rejects_overflowing_span(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        grid = {"u_min": -1e308, "u_max": 1e308, "v_min": -1.0, "v_max": 1.0,
                "n_u": 2, "n_v": 2}
        path.write_text(json.dumps({"grid": grid, "values": [[0.0, 0.0], [0.0, 0.0]]}))
        code, stdout, err = run(capsys, "validate", "--kind", "wigner", str(path))
        assert code == 2
        assert "u_max - u_min overflows" in err
        assert stdout == ""

    def test_validate_wigner_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        run(capsys, "--out", str(out), "wigner", "--state", "vacuum",
            "--grid", "-2:2:9")
        code, stdout, _ = run(capsys, "validate", "--kind", "wigner", str(out))
        assert code == 0
        assert stdout.strip() == "ok"

    def test_validate_wigner_json_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        run(capsys, "--format", "json", "--out", str(out), "wigner",
            "--state", "vacuum", "--grid", "-2:2:9")
        code, stdout, _ = run(capsys, "validate", "--kind", "wigner", str(out))
        assert code == 0

    def test_validate_all_csv_kinds(self, capsys, tmp_path):
        zones = tmp_path / "z.csv"
        run(capsys, "--out", str(zones), "fresnel", "--r0", "100", "--b", "100",
            "--lambda", "1", "zones", "--n", "12")
        overlap = tmp_path / "o.csv"
        run(capsys, "--out", str(overlap), "overlap", "--beta", "1")
        belts_f = tmp_path / "b.csv"
        run(capsys, "--out", str(belts_f), "spin", "--j", "2", "belts")
        bands = tmp_path / "p.csv"
        run(capsys, "--out", str(bands), "spin", "--j", "2", "project")
        for kind, path in [
            ("zones", zones), ("overlap", overlap),
            ("spin-belts", belts_f), ("spin-bands", bands),
        ]:
            code, stdout, _ = run(capsys, "validate", "--kind", kind, str(path))
            assert code == 0, kind
            assert stdout.strip() == "ok"

    @pytest.mark.parametrize("kind, argv, ends", [
        ("wigner", ("wigner", "--state", "vacuum", "--grid", "-1:1:3"), b"\r\n"),
        ("wigner", ("wigner", "--state", "vacuum", "--grid", "-1:1:3"), b"\r"),
        ("zones", ("--format", "json", "fresnel", "--r0", "100", "--b", "100",
                   "--lambda", "1", "zones", "--n", "5"), b"\r\n"),
        ("overlap", ("overlap", "--beta", "1"), b"\r\n"),
    ], ids=["wigner-crlf", "wigner-cr", "zones-json-crlf", "overlap-crlf"])
    def test_validate_refuses_rewritten_line_ends(self, capsys, tmp_path, kind, argv, ends):
        # validate reads the bytes as written, with no line-end translation
        path = tmp_path / "f.out"
        assert run(capsys, "--out", str(path), *argv)[0] == 0
        path.write_bytes(path.read_bytes().replace(b"\n", ends))
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("kind, text, message", [
        ("zones", "n,rho,re_Un,im_Un,abs_Un,phase_Un\n1,2\n",
         "line 2 does not hold 6 values"),
        ("spin-bands", "n,m,rho_lo,rho_hi,area\n1,2,3,4,5,6,7\n",
         "line 2 does not hold 5 values"),
        # the unended last line is not read, so the re-write ends where it begins
        ("overlap", "n,p_overlap,p_poisson\n0,0.5,0.5", f"{_DIFFERS} 2, column 1"),
        ("spin-belts", "m,z_lo,z_hi,area\n007,0,1,2\n", f"{_DIFFERS} 2, column 1"),
        ("overlap", "n,p_overlap,p_poisson\n0.5,0.5,0.5\n", f"line 2: n='0.5' {_UNTYPED}"),
        ("spin-bands", "n,m,rho_lo,rho_hi,area\n1.5,0,0,1,1\n",
         f"line 2: n='1.5' {_UNTYPED}"),
        ("zones", "n,rho,re_Un,im_Un,abs_Un,phase_Un\n1.0,1,0,0,0,0\n",
         f"line 2: n='1.0' {_UNTYPED}"),
    ], ids=["short-row", "long-row", "no-final-newline", "zero-padded-integer",
            "half-index", "fractional-index", "float-written-index"])
    def test_validate_refuses_tables_the_writer_never_writes(self, capsys, tmp_path,
                                                             kind, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")

    def test_validate_rejects_wrong_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, _ = run(capsys, "validate", "--kind", "zones", str(bad))
        assert code == 2

    def test_json_summary_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        run(capsys, "--out", str(out), "fresnel", "--r0", "100", "--b", "100",
            "--lambda", "1", "zonesum", "--n", "20")
        code, _, _ = run(capsys, "validate", "--kind", "zones", str(out))
        assert code == 0

    _FRESNEL = ("fresnel", "--r0", "100", "--b", "100", "--lambda", "1")

    @pytest.mark.parametrize("kind, argv, reverse, message", [
        # the head value 1 is re-written as 1.0
        *((kind, None, False, f"{_DIFFERS} 1, column 8")
          for kind in ("zones", "overlap", "spin-belts", "spin-bands")),
        ("overlap", ("--format", "json", "spin", "--j", "2", "belts"), False,
         "head belts=[{'m': -2.0, 'z_lo': -2.449489742783178, 'z_hi': -1.5, 'area "
         f"{_UNTYPED}"),
        ("zones", ("--format", "json", *_FRESNEL, "zones", "--n", "5"), True,
         f"{_DIFFERS} 1, column 49"),
        ("overlap", (*_FRESNEL, "zonesum", "--n", "5"), False,
         "head geometry={'r0': 100.0, 'b': 100.0, 'wavelength': 1.0, 'amplitude': 1. "
         f"{_UNTYPED}"),
    ], ids=["object-as-zones", "object-as-overlap", "object-as-spin-belts",
            "object-as-spin-bands", "belts-as-overlap", "reversed-zone-columns",
            "zonesum-as-overlap"])
    def test_validate_json_holds_the_kinds_records(self, capsys, tmp_path, kind, argv,
                                                   reverse, message):
        # each file re-serializes to its own bytes, but holds no list of the
        # kind's records with exactly its columns in order
        path = tmp_path / "t.json"
        if argv is None:
            path.write_text('{"a": 1}\n')
        else:
            assert run(capsys, "--out", str(path), *argv)[0] == 0
        if reverse:
            obj = json.loads(path.read_text())
            obj["zones"] = [dict(reversed(row.items())) for row in obj["zones"]]
            path.write_text(json.dumps(obj) + "\n")
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("kind, argv", [
        ("zones", (*_FRESNEL, "zones", "--n", "12")),
        ("zones", (*_FRESNEL, "zonesum", "--n", "12")),
        ("zones", (*_FRESNEL, "plate", "--open", "odd", "--n", "3")),
        ("overlap", ("overlap", "--beta", "0")),
        ("overlap", ("overlap", "--beta", "5")),
        ("spin-belts", ("spin", "--j", "2", "belts")),
        ("spin-bands", ("spin", "--j", "1.5", "project")),
    ], ids=["zones", "zonesum", "plate", "overlap-vacuum", "overlap", "belts", "bands"])
    def test_validate_all_json_kinds(self, capsys, tmp_path, kind, argv):
        path = tmp_path / "t.json"
        assert run(capsys, "--format", "json", "--out", str(path), *argv)[0] == 0
        assert run(capsys, "validate", "--kind", kind, str(path)) == (0, "ok\n", "")

    #: A plate summary as ``cmd_fresnel`` writes it, which validate accepts.
    _PLATE = {"geometry": {"r0": 100.0, "b": 100.0, "wavelength": 1.0, "amplitude": 1.0},
              "open_zones": [1, 3], "U_plate": {"re": 1.0, "im": 0.0, "abs": 1.0, "phase": 0.0},
              "U_free": {"re": 0.5, "im": 0.0, "abs": 0.5, "phase": 0.0},
              "amplitude_ratio": 2.0}
    @pytest.mark.parametrize("kind, obj, message", [
        ("overlap", {"table": [{"n": "x", "p_overlap": None, "p_poisson": []}]},
         f"n='x' {_UNTYPED}"),
        # a value typed as its writer types it is re-written in another spelling
        ("overlap", {"table": [{"n": 0, "p_overlap": 1, "p_poisson": 0.5}]},
         f"{_DIFFERS} 1, column 35"),
        ("spin-bands", {"bands": [{"n": 1.0, "m": 0.0, "rho_lo": 0.0, "rho_hi": 1.0,
                                   "area": 1.0}]}, f"{_DIFFERS} 1, column 19"),
        ("overlap", {"table": [{"n": 0.5, "p_overlap": 0.5, "p_poisson": 0.5}]},
         f"{_DIFFERS} 1, column 19"),
        ("spin-bands", {"bands": [{"n": 1.5, "m": 0.0, "rho_lo": 0.0, "rho_hi": 1.0,
                                   "area": 1.0}]}, f"{_DIFFERS} 1, column 19"),
        ("spin-belts", {"belts": [{"m": True, "z_lo": 0.0, "z_hi": 1.0, "area": 1.0}]},
         f"{_DIFFERS} 1, column 18"),
        ("zones", {"geometry": 1}, f"{_DIFFERS} 1, column 15"),
        ("zones", {**_PLATE, "amplitude_ratio": "1"}, f"{_DIFFERS} 1, column 240"),
        ("zones", {**_PLATE, "open_zones": [None]}, f"open_zones=[None] {_UNTYPED}"),
        # an entry that lacks a key reads null there
        ("zones", {"geometry": {}, "U_free": {}, "U_integral": {}, "U_zone_sum_raw": {},
                   "U_zone_sum_averaged": {}}, f"r0=None {_UNTYPED}"),
        ("zones", {**_PLATE, "geometry": {**_PLATE["geometry"], "n_zones": 3}},
         f"{_DIFFERS} 1, column 75"),
        ("zones", {**_PLATE, "U_free": {"re": 1.0, "im": 0.0, "abs": 1.0}},
         f"phase=None {_UNTYPED}"),
        ("zones", {"slope_loglog": "x", "zones": []}, f"head slope_loglog='x' {_UNTYPED}"),
        ("zones", {"zones": [], "slope_loglog": 1.0}, f"{_DIFFERS} 1, column 3"),
        ("spin-bands", {"j": 2.0, "bands": [], "extra": 1.0}, f"{_DIFFERS} 1, column 13"),
    ], ids=["text-and-null", "integer-probability", "float-index", "half-index",
            "fractional-index", "bool", "bare-geometry",
            "text-ratio", "null-zone", "empty-inner-objects", "plate-with-zone-count",
            "complex-without-phase", "text-head", "key-before-head", "head-after-key"])
    def test_validate_refuses_json_values_the_writer_never_writes(self, capsys, tmp_path,
                                                                  kind, obj, message):
        # each file re-serializes to its own bytes and holds the kind's keys
        path = tmp_path / "t.json"
        path.write_text(json.dumps(obj) + "\n")
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")

    def test_validate_compares_any_float_head_with_the_writers_blocks(self, capsys, tmp_path):
        # head keys that spell the table writer's own parameters are plain keys
        path = tmp_path / "t.json"
        path.write_text('{"rows": 1.0, "kind": 2.0, "table": []}\n')
        assert run(capsys, "validate", "--kind", "overlap", str(path)) == (0, "ok\n", "")

    def test_validate_accepts_the_plate_summary_the_refusals_edit(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(self._PLATE) + "\n")
        assert run(capsys, "validate", "--kind", "zones", str(path)) == (0, "ok\n", "")

    #: A zonesum summary as ``cmd_fresnel`` writes it, which validate accepts.
    _ZONESUM = {"geometry": {**_PLATE["geometry"], "n_zones": 12},
                **dict.fromkeys(("U_free", "U_integral", "U_zone_sum_raw",
                                 "U_zone_sum_averaged"), _PLATE["U_free"])}

    @pytest.mark.parametrize("kind, text, message", [
        ("zones", json.dumps({**_PLATE, "amplitude_ratio": 2}) + "\n",
         f"{_DIFFERS} 1, column 241"),
        ("zones", json.dumps({**_PLATE, "amplitude_ratio": [2.0]}) + "\n",
         f"amplitude_ratio=[2.0] {_UNTYPED}"),
        ("zones", json.dumps({**_PLATE, "open_zones": [1.0, 3.0]}) + "\n",
         f"{_DIFFERS} 1, column 94"),
        ("zones", json.dumps({**_PLATE, "U_free": {**_PLATE["U_free"], "abs": 1}}) + "\n",
         f"{_DIFFERS} 1, column 202"),
        ("zones", json.dumps({**_ZONESUM, "geometry": {**_PLATE["geometry"], "n_zones": 12.0}})
         + "\n", f"{_DIFFERS} 1, column 90"),
        ("overlap", "n,p_overlap,p_poisson\n1e+17,0.5,0.5\n", f"line 2: n='1e+17' {_UNTYPED}"),
    ], ids=["integer-ratio", "list-ratio", "float-zones", "integer-abs", "float-zone-count",
            "exponent-index"])
    def test_validate_refuses_values_typed_otherwise_than_written(self, capsys, tmp_path, kind,
                                                                  text, message):
        # each value is a number, but not of the type the writer gives it
        path = tmp_path / "t.out"
        path.write_text(json.dumps(self._ZONESUM) + "\n")
        assert run(capsys, "validate", "--kind", "zones", str(path)) == (0, "ok\n", "")
        path.write_text(text)
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind, text", [
        ("zones", '{"zones": ' + "[" * 100000 + "]" * 100000 + "}\n"),
        ("wigner", '{"grid": ' + "[" * 100000 + "]" * 100000 + "}\n"),
    ], ids=["zones", "wigner-grid"])
    def test_validate_refuses_deeply_nested_json(self, capsys, tmp_path, kind, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        code, stdout, err = run(capsys, "validate", "--kind", kind, str(path))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


#: Characters a one-character edit writes: number, separator and JSON syntax.
_EDIT_CHARS = '0123456789.-+eE,"{}[] :\r\nnx'
#: What a type swap writes in place of one number.
_SWAPS = ("1", "1.0", "1e+20", '"1"', "null", "true", "[1]", "{}", "NaN", "1e400", "nan", "x",
          "")


def _edits(text, rng):
    """Edited copies of ``text``: seeded one-character replacements, insertions and
    deletions, CRLF line ends, no final newline, and a number swapped each way."""
    for _ in range(12):
        at, char = rng.randrange(len(text)), rng.choice(_EDIT_CHARS)
        yield rng.choice((text[:at] + char + text[at + 1:], text[:at] + char + text[at:],
                          text[:at] + text[at + 1:]))
    yield text.replace("\n", "\r\n")
    yield text[:-1]
    numbers = list(re.finditer(r"-?\d[\d.e+-]*", text))
    for swap in _SWAPS:
        number = rng.choice(numbers)
        yield text[:number.start()] + swap + text[number.end():]


def test_validate_exits_cleanly_on_edited_files(tmp_path, capsys):
    # every edit of every table and summary, read as each table kind, is
    # accepted or refused with one error line, never a traceback
    geom = ("fresnel", "--r0", "100", "--b", "100", "--lambda", "1")
    sources = [(*fmt, *argv) for fmt in ((), ("--format", "json")) for argv in (
        (*geom, "zones", "--n", "5"), ("overlap", "--beta", "1"),
        ("spin", "--j", "2", "belts"), ("spin", "--j", "1.5", "project"))]
    sources += [(*geom, "zonesum", "--n", "5"), (*geom, "plate", "--open", "odd", "--n", "3")]
    rng, source, path = random.Random(25), tmp_path / "source", tmp_path / "edited"
    for argv in sources:
        assert main(["--out", str(source), *argv]) == 0
        for text in _edits(source.read_text(), rng):
            path.write_text(text, newline="")
            for kind in ("zones", "overlap", "spin-belts", "spin-bands"):
                capsys.readouterr()
                code = main(["validate", "--kind", kind, str(path)])
                out, err = capsys.readouterr()
                assert (code, out, err) == (0, "ok\n", "") or (
                    (code, out) == (2, "") and err.startswith("error: ")
                    and err.count("\n") == 1), (argv, kind, text, err)


@pytest.mark.parametrize("state, method", [
    ("coherent:2", "direct"),
    ("mixture:fock:0@1;fock:2@1;coherent:1@1;coherent:0,1.5@1;fock:5@1;coherent:-1,-1@1",
     "both"),
], ids=["readme-direct", "mixture-both"])
def test_direct_route_bytes_do_not_depend_on_blas_threads(tmp_path, state, method):
    # OpenBLAS reads its thread count when numpy loads, so each count needs a
    # process; the README's 81 x 81 grid is large enough for OpenBLAS to thread
    # a grid-wide matrix product, where -6:6:21 was not
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "phasewave.cli", "--out", str(out), "wigner",
             "--state", state, "--grid", "-6:6:81", "--method", method],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads), check=True,
            capture_output=True,
        )
        files.append([p.read_bytes() for p in sorted(tmp_path.glob(f"w{threads}*.csv"))])
    assert len(files[0]) == (2 if method == "both" else 1)
    assert files[0] == files[1]


def test_overflowing_chord_target_exits_promptly():
    # 6 * half_window * v / pi overflows to inf, which no doubling of the node
    # count reaches; a subprocess, so a hang fails the test instead of stalling it
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "phasewave.cli", "wigner", "--state", "vacuum",
         "--grid", "-1e154:1e154:3", "--method", "direct"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 2
    assert "limit of 1000000 chord samples" in result.stderr


#: Runs argv (after the launcher's own argv[1]) as a forked child and prints
#: its exit code and peak RSS in kB.  The child is forked from this small
#: launcher, because Linux carries the forking process's RSS high-water mark
#: into the child's ru_maxrss.
_PEAK_LAUNCHER = (
    "import os, sys\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.fork and os.wait4")
def test_unconverged_chord_quadrature_stops_at_the_sample_budget():
    # the window spans |u| <= 1e4 while |v| <= 1e-3 asks for few nodes, so the
    # levels never agree: the refinement stops before 101 rows x 16385 nodes
    # (1.65e6 samples) and reports the 8193-node level's estimate.  Measured
    # peak 101 MB; it was 309 MB when all eight levels up to 32769 nodes ran.
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER, "-m", "phasewave.cli", "wigner",
         "--state", "vacuum", "--grid", "-10000:10000:101", "--grid-v", "-1e-3:1e-3:2",
         "--method", "direct"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    code, peak_kb = map(int, result.stdout.split())
    assert code == 3
    assert "chord quadrature not converged: Richardson estimate" in result.stderr
    assert peak_kb < 160 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.fork and os.wait4")
def test_large_table_is_written_in_blocks(tmp_path):
    # 200,003 band rows, a 14 MB file: measured peak 61 MB; it was 112-116 MB when
    # the rows, their CSV lines, the joined text and its copy were held at once
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "bands.csv"
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER, "-m", "phasewave.cli", "--out", str(out),
         "spin", "--j", "100000.5", "project"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    code, peak_kb = map(int, result.stdout.split())
    assert code == 0
    assert out.stat().st_size > 14 * 10**6
    assert peak_kb < 85 * 1024


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("spin", "--j", "7", "project"),
    ("spin", "--j", "3", "belts"),
    ("overlap", "--beta", "0.5"),
    ("fresnel", "--r0", "100", "--b", "100", "--lambda", "1", "zones", "--n", "5"),
], ids=["bands", "belts", "overlap", "zones"])
def test_table_blocks_join_to_the_whole_table(capsys, monkeypatch, fmt, argv):
    # these tables fit one block; blocks of two rows split each unevenly
    assert main(["--format", fmt, *argv]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr("phasewave.cli._ROWS_PER_WRITE", 2)
    assert main(["--format", fmt, *argv]) == 0
    assert capsys.readouterr().out == whole


def test_cli_import_needs_no_scipy():
    # numpy is the only runtime dependency; scipy must not come back
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, phasewave.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


#: Modules a subcommand may import, watched by the start-up guard.
_WATCHED = ("numpy", "scipy", "phasewave.fock", "phasewave.wigner",
            "phasewave.fresnel", "phasewave.spinmap", "phasewave.semiclassics")


def _fresh_cli(*argvs):
    """Exit codes of each argv, run through cli.main in one fresh interpreter
    after ``import phasewave.cli``, and the watched modules it then holds."""
    src = str(Path(phasewave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import json, sys, phasewave.cli\n"
        "codes = [phasewave.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        f"loaded = sorted(m for m in {_WATCHED!r} if m in sys.modules)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    return codes, set(loaded)


def test_startup_loads_only_what_the_subcommand_computes_with(tmp_path):
    assert _fresh_cli() == ([], set())

    golden = Path(__file__).parent / "golden"
    table = tmp_path / "overlap.csv"
    table.write_text("n,p_overlap,p_poisson\n0,0.5,0.25\n1,0.5,0.75\n")
    codes, loaded = _fresh_cli(
        ["validate", "--kind", "zones", str(golden / "zones.out")],
        ["validate", "--kind", "spin-bands", str(golden / "spin_project.stdout")],
        ["validate", "--kind", "overlap", str(table)],
    )
    assert codes == [0, 0, 0]
    assert loaded == set()

    # a Wigner field is read, checked and re-written with the standard library
    field_csv, field_json = tmp_path / "w.csv", tmp_path / "w.json"
    field_csv.write_text((golden / "wigner_fock1_both.out").read_text())
    codes, _ = _fresh_cli(["--format", "json", "--out", str(field_json), "wigner",
                           "--state", "fock:1", "--grid", "-4:4:5", "--method", "parity"])
    assert codes == [0]
    codes, loaded = _fresh_cli(
        ["validate", "--kind", "wigner", str(field_csv)],
        ["validate", "--kind", "wigner", str(field_json)],
    )
    assert codes == [0, 0]
    assert loaded == set()
    src = str(Path(phasewave.__file__).resolve().parents[1])
    probe = (f"import sys, phasewave; phasewave.PhaseGrid; phasewave.WignerField; "
             f"print(sorted(m for m in {_WATCHED!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

    # every fresnel subaction computes on the standard library
    geom = ["fresnel", "--r0", "100", "--b", "100", "--lambda", "1"]
    codes, loaded = _fresh_cli(
        ["--out", str(tmp_path / "z.csv"), *geom, "zones", "--n", "3"],
        ["--out", str(tmp_path / "f.json"), *geom, "zonesum", "--n", "4"],
        [*geom, "plate", "--open", "odd", "--n", "2"],
    )
    assert codes == [0, 0, 0]
    assert loaded == {"phasewave.fresnel"}

    # the band and belt tables are computed on the standard library
    codes, loaded = _fresh_cli(
        ["--out", str(tmp_path / "b.csv"), "spin", "--j", "2", "project"],
        ["--out", str(tmp_path / "s.csv"), "spin", "--j", "0.5", "belts"],
    )
    assert codes == [0, 0]
    assert loaded == {"phasewave.spinmap"}

    # a state or grid spec the grammar refuses is refused before numpy loads
    refused = [["wigner", "--state", state, "--grid", "-7:7:11"] for state in
               ("fock:-1", "coherent:1,2,3", "squeezed:1", "mixture:fock:1", "coherent:2j")]
    refused += [["wigner", "--state", "vacuum", "--grid", "-2:2"],
                ["wigner", "--state", "fock:1", "--grid", "-2:2:3", "--method", "both"],
                ["wigner", "--state", "fock:1", "--grid", "-2:2:3", "--n-max", "40"]]
    codes, loaded = _fresh_cli(*refused)
    assert codes == [2] * len(refused)
    assert loaded == set()

    # the overlap table and its moments are computed on the standard library
    codes, loaded = _fresh_cli(
        ["--out", str(tmp_path / "o.csv"), "overlap", "--beta", "1"],
        ["--format", "json", "--out", str(tmp_path / "o.json"), "overlap", "--beta", "5"],
    )
    assert codes == [0, 0]
    assert loaded == {"phasewave.semiclassics"}

    # the Wigner command never touches the zone, belt or overlap modules, nor scipy
    codes, loaded = _fresh_cli(["--out", str(tmp_path / "w.csv"), "wigner", "--state",
                                "fock:1", "--grid", "-4:4:5", "--method", "both"])
    assert codes == [0]
    assert loaded == {"numpy", "phasewave.fock", "phasewave.wigner"}


#: Special number tokens every fuzzed number slot may receive.
_SPECIAL_NUMBERS = ("nan", "inf", "-inf", "-0.0", "0", "-1", "1e300", "5e-324",
                    "1e-300", "1e-100", "1e100", "1e15", "1e16")

_NONFINITE = re.compile(r"\b(?:nan|NaN|inf|Infinity)\b")

_FRESNEL_ACTIONS = (
    ("zones", "--n", "3"),
    ("zonesum", "--n", "4"),
    ("plate", "--open", "odd", "--n", "2"),
)


def _number(data, accepted, one_in=4):
    """A drawn number as a token; one in ``one_in`` is a special token instead."""
    if data.draw(st.integers(0, one_in - 1)) == 0:
        return data.draw(st.sampled_from(_SPECIAL_NUMBERS))
    return repr(data.draw(accepted))


def _exits_cleanly(tmp_path_factory, data, argv):
    """Run ``argv`` through main; exit 0, 2 or 3, no traceback, finite output.

    Every field a ``wigner`` run writes must pass ``validate --kind wigner``.
    Returns the exit code, stderr and the files written."""
    workdir = tmp_path_factory.mktemp("fuzz")
    fmt = data.draw(st.sampled_from(("csv", "json")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", fmt, "--out", str(workdir / f"out.{fmt}"), *argv])
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for text in [out.getvalue()] + [p.read_text() for p in workdir.iterdir()]:
            assert not _NONFINITE.search(text), (argv, text[:200])
        if argv[0] == "wigner":
            with contextlib.redirect_stdout(io.StringIO()):
                for path in workdir.iterdir():
                    assert main(["validate", "--kind", "wigner", str(path)]) == 0, (argv, path)
    else:
        # argparse prefixes its own refusals with the usage text
        assert re.search(r"^(?:phasewave.*: )?error: |^numerical failure: ", err.getvalue(),
                         re.MULTILINE), argv
    return code, err.getvalue(), sorted(workdir.iterdir())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_number_tokens_exit_cleanly(tmp_path_factory, data):
    # every accepted size stays far below its budget, so each example is quick
    kind = data.draw(st.sampled_from(("spin", "overlap", "fresnel", "mixture")))
    if kind == "spin":
        argv = ["spin", "--j", _number(data, st.integers(0, 80).map(lambda k: k / 2)),
                data.draw(st.sampled_from(("belts", "project")))]
    elif kind == "overlap":
        argv = ["overlap", "--beta", _number(data, st.floats(-1.0, 6.0))]
    elif kind == "fresnel":
        length = st.floats(1.0, 1e6)
        argv = ["fresnel", "--r0", _number(data, length), "--b", _number(data, length),
                "--lambda", _number(data, st.floats(1e-3, 1.0)),
                *data.draw(st.sampled_from(_FRESNEL_ACTIONS))]
    else:
        weight = st.floats(0.0, 1e308)
        argv = ["wigner", "--state",
                f"mixture:fock:1@{_number(data, weight)};coherent:0.5@{_number(data, weight)}",
                "--grid", "-6:6:3", "--method",
                data.draw(st.sampled_from(("direct", "parity", "both")))]
    _exits_cleanly(tmp_path_factory, data, argv)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_fresnel_geometries_exit_cleanly(tmp_path_factory, data):
    # r0 and b span 10 to 1e15 wavelengths and the wavelength 1e-100 to 1e100:
    # the geometry's limits are all crossed, no math call may raise past them,
    # and every geometry they accept computes
    lam = data.draw(_log_uniform(1e-100, 1e100))
    r0, b = (lam * data.draw(_log_uniform(10.0, 1e15)) for _ in range(2))
    argv = ["fresnel", "--r0", repr(r0), "--b", repr(b), "--lambda", repr(lam),
            *data.draw(st.sampled_from(_FRESNEL_ACTIONS))]
    code, err, written = _exits_cleanly(tmp_path_factory, data, argv)
    if code:
        assert code == 2 and len(err.splitlines()) == 1, (argv, err)
        return
    with contextlib.redirect_stdout(io.StringIO()):
        for path in written:
            assert main(["validate", "--kind", "zones", str(path)]) == 0, (argv, path)


#: Malformed state specs the state grammar fuzz mixes in.
_BAD_STATES = ("", "fock:", "coherent:", "coherent:1,2,3", "mixture:", "mixture:vacuum",
               "vacuum@1", ";", "@", "squeezed:1", " vacuum ")


def _state_spec(data, depth=0):
    """A state spec: vacuum, fock:, coherent:, or a mixture whose components
    may themselves be mixtures (which the grammar refuses)."""
    kinds = ("vacuum", "fock", "fock", "coherent", "coherent", "mixture", "bad")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "fock":
        return "fock:" + _number(data, st.integers(0, 12), 16)
    if kind == "coherent":
        parts = data.draw(st.integers(1, 2))
        amplitude = st.floats(-3.0, 3.0)
        return "coherent:" + ",".join(_number(data, amplitude, 16) for _ in range(parts))
    if kind == "mixture" and depth < 2:
        weight = st.floats(0.0, 1e308)
        parts = [f"{_state_spec(data, depth + 1)}@{_number(data, weight, 16)}"
                 for _ in range(data.draw(st.integers(1, 3)))]
        return "mixture:" + ";".join(parts)
    if kind == "bad":
        return data.draw(st.sampled_from(_BAD_STATES))
    return "vacuum"


#: Lower bounds of the axes that span only a few doubles.
_NARROW_FROM = (0.0, 5e-324, -1e-310, 1.0)


def _grid_axis(data):
    """min:max:count with bounds up to +-1e300 and at most 5 nodes; one axis in
    four spans one to three doubles above a bound of _NARROW_FROM, one in eight
    carries a special token, one in sixteen a field too few."""
    if data.draw(st.integers(0, 3)) == 0:
        lo = hi = data.draw(st.sampled_from(_NARROW_FROM))
        for _ in range(data.draw(st.integers(1, 3))):
            hi = math.nextafter(hi, math.inf)
    else:
        small = st.floats(-8.0, 8.0)
        bound = st.one_of(small, small, small, st.floats(-1e300, 1e300))
        lo, hi = sorted(data.draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    fields = [repr(lo), repr(hi), repr(data.draw(st.integers(2, 5)))]
    if data.draw(st.integers(0, 7)) == 0:
        fields[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(_SPECIAL_NUMBERS))
    if data.draw(st.integers(0, 15)) == 0:
        del fields[data.draw(st.integers(0, 2))]
    return ":".join(fields)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.data())
def test_state_and_grid_grammars_exit_cleanly(tmp_path_factory, data):
    argv = ["wigner", "--state", _state_spec(data), "--grid", _grid_axis(data)]
    if data.draw(st.booleans()):
        argv += ["--grid-v", _grid_axis(data)]
    argv += ["--method", data.draw(st.sampled_from(("direct", "parity", "both")))]
    _exits_cleanly(tmp_path_factory, data, argv)


def _wigner_oracle_cases(seed=16):
    """Drawn ``wigner`` inputs with closed-form values: (spec, u bounds, v bounds,
    W at a node, the node indices checked).

    A coherent state's 3x3 grid of spacing 0.5 is centred on its centre, where
    W = 1/pi; a Fock state's or a Fock mixture's spans a random unit square in
    [-3, 3]^2, where W = sum_i w_i (-1)^n_i e^(-r^2) L_n_i(2 r^2) / (pi sum_i w_i)
    at every node.  ``random.Random``, not Hypothesis, draws them, so no literal
    constant of a loaded module moves them.
    """
    import mpmath

    def fock_w(parts):
        def w(u, v):
            with mpmath.workdps(30):
                r2 = mpmath.mpf(u) ** 2 + mpmath.mpf(v) ** 2
                total = mpmath.fsum(weight for _, weight in parts)
                return float(mpmath.fsum(
                    weight * (-1) ** n * mpmath.exp(-r2) * mpmath.laguerre(n, 0, 2 * r2)
                    for n, weight in parts) / (mpmath.pi * total))
        return w

    rng, cases = random.Random(seed), []
    every_node = [(i, k) for i in range(3) for k in range(3)]
    for _ in range(12):
        beta = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        cu, cv = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
        cases.append((f"coherent:{beta.real!r},{beta.imag!r}", (cu - 0.5, cu + 0.5),
                      (cv - 0.5, cv + 0.5), lambda u, v: 1.0 / math.pi, [(1, 1)]))
    for _ in range(8):
        n, u0, v0 = rng.randrange(60), rng.uniform(-3.0, 2.0), rng.uniform(-3.0, 2.0)
        cases.append((f"fock:{n}", (u0, u0 + 1.0), (v0, v0 + 1.0), fock_w([(n, 1.0)]),
                      every_node))
    for _ in range(4):
        parts = [(rng.randrange(60), rng.uniform(0.1, 1.0)) for _ in range(rng.randint(2, 3))]
        u0, v0 = rng.uniform(-3.0, 2.0), rng.uniform(-3.0, 2.0)
        spec = "mixture:" + ";".join(f"fock:{n}@{weight!r}" for n, weight in parts)
        cases.append((spec, (u0, u0 + 1.0), (v0, v0 + 1.0), fock_w(parts), every_node))
    return cases


def _call_violations(capsys, argv, files):
    """Run ``argv`` through ``cli.main`` with ``--out files[0]``: its exit code,
    each way it breaks the rule of exit 0, or exit 2 or 3 with a message and none
    of ``files`` written, in under 2 s either way, and its stdout."""
    start = time.perf_counter()
    code, out, err = run(capsys, "--out", str(files[0]), *argv)
    elapsed = time.perf_counter() - start
    label = " ".join(argv)
    bad = [f"{label}: {elapsed:.2f} s"] if elapsed >= 2.0 else []
    if code != 0 and (code not in (2, 3) or not err.strip()
                      or any(path.exists() for path in files)):
        bad.append(f"{label}: exit {code}, stderr {err!r}")
    return code, bad, out


def _oracle_violations(capsys, tmp_path, case, method):
    """Each way one ``wigner`` call breaks :func:`_call_violations`'s rule, or
    exits 0 with a checked node more than 1e-8 from its closed form."""
    from phasewave import WignerField

    spec, (u_lo, u_hi), (v_lo, v_hi), oracle, nodes = case
    files = [tmp_path / f"{method}.csv", tmp_path / f"{method}.parity.csv"]
    code, bad, _ = _call_violations(capsys, [
        "wigner", "--state", spec, "--grid", f"{u_lo!r}:{u_hi!r}:3",
        "--grid-v", f"{v_lo!r}:{v_hi!r}:3", "--method", method], files)
    if code != 0:
        return bad
    for path in files[: 2 if method == "both" else 1]:
        field = WignerField.from_csv(path.read_text())
        u, v = field.grid.u_axis, field.grid.v_axis
        for i, k in nodes:
            got, want = float(field.values[i, k]), oracle(u[i], v[k])
            if not abs(got - want) <= 1e-8:
                bad.append(f"{spec} --method {method}: {path.name} reads {got!r} at "
                           f"({u[i]!r}, {v[k]!r}) for {want!r}")
        path.unlink()
    return bad


def test_wigner_closed_forms_through_the_cli(capsys, tmp_path):
    """Each drawn state under each ``--method``, through ``cli.main``.

    Two classes are not drawn, for their time alone (ROADMAP.md): FOUND 8's,
    fock:2000 under --method parity at 26 s a call, and FOUND 5's, coherent:26
    under --method direct at its centre, 1.4 s before its exit 3.
    """
    bad = [line for case in _wigner_oracle_cases()
           for method in ("direct", "parity", "both")
           for line in _oracle_violations(capsys, tmp_path, case, method)]
    assert not bad, "\n".join(bad)


def _relative_misses(label, pairs, rel):
    """A line for each (name, got, want) of ``pairs`` more than ``rel`` from ``want``."""
    return [f"{label}: {name} reads {got!r} for {want!r}"
            for name, got, want in pairs if not abs(got - want) <= rel * abs(want)]


def _poisson_misses(label, head, rows):
    """``overlap``: p_poisson within 1e-12 relative of the 40-digit Poisson(beta^2)
    wherever it reaches 1e-12 of its peak, and the p_overlap summing to 1 within 1e-12."""
    import mpmath

    peak = max(row["p_poisson"] for row in rows)
    with mpmath.workdps(40):
        mean = mpmath.mpf(head["beta"]) ** 2
        pairs = [(f"p_poisson[{row['n']}]", row["p_poisson"],
                  float(mpmath.exp(-mean) * mean ** row["n"] / mpmath.factorial(row["n"])))
                 for row in rows if row["p_poisson"] >= 1e-12 * peak]
    total = math.fsum(row["p_overlap"] for row in rows)
    bad = [] if abs(total - 1.0) <= 1e-12 else [f"{label}: p_overlap sums to {total!r}"]
    return bad + _relative_misses(label, pairs, 1e-12)


def _zone_misses(label, geometry, rows):
    """``fresnel zones``: row n's rho^2 within 1e-13 relative of the exact law at
    boundary n + 1, evaluated at 30 digits (test_fresnel.py's radius law)."""
    import mpmath

    r0, b, lam = geometry
    pairs = []
    with mpmath.workdps(30):
        r0, b, lam = map(mpmath.mpf, (r0, b, lam))
        for row in rows:
            n = row["n"] + 1
            t = n * lam / 2
            h = t * (2 * b + t) / (4 * r0 * (r0 + b))
            want = r0 * b / (r0 + b) * n * lam * (1 + n * lam / (4 * b)) * (1 - h)
            pairs.append((f"rho[{row['n']}]^2", row["rho"] ** 2, float(want)))
    return _relative_misses(label, pairs, 1e-13)


def _annulus_misses(label, head, rows):
    """``spin project``: each southern band n >= 1 has rho_lo^2 R = 2n(j + 1/2) - n^2 - 1/4
    within 1e-12 relative, R = sqrt(j(j + 1)) the sphere's radius."""
    j = head["j"]
    radius = math.sqrt(j * (j + 1.0))
    return _relative_misses(label, [
        (f"rho_lo[{row['n']}]^2 R", row["rho_lo"] ** 2 * radius,
         2 * row["n"] * (j + 0.5) - row["n"] ** 2 - 0.25)
        for row in rows if row["n"] >= 1 and row["m"] < 0], 1e-12)


def _table_oracle_cases(seed=16):
    """Drawn ``overlap``, ``fresnel zones`` and ``spin project`` calls: (argv, the
    key of the JSON table written, the misses of its rows against its closed form)."""
    rng, cases = random.Random(seed), []
    for _ in range(8):
        beta = rng.uniform(0.0, 8.0)
        cases.append((["overlap", "--beta", repr(beta)], "table", _poisson_misses))
    for _ in range(8):
        lam = rng.uniform(0.5, 1.5)
        r0, b = (lam * 10.0 ** rng.uniform(1.0, 4.0) for _ in range(2))
        cases.append((["fresnel", "--r0", repr(r0), "--b", repr(b), "--lambda", repr(lam),
                       "zones", "--n", str(rng.randint(2, 300))], "zones",
                      lambda label, head, rows, g=(r0, b, lam): _zone_misses(label, g, rows)))
    for _ in range(8):
        cases.append((["spin", "--j", repr(rng.randint(2, 2000) / 2), "project"], "bands",
                      _annulus_misses))
    return cases


def test_table_closed_forms_through_the_cli(capsys, tmp_path):
    """Each drawn ``overlap``, ``fresnel zones`` and ``spin project`` call, through
    ``cli.main`` under the rule of :func:`_call_violations`, against its closed form."""
    out, bad, written = tmp_path / "table.json", [], 0
    for argv, key, misses in _table_oracle_cases():
        code, call_bad, _ = _call_violations(capsys, ["--format", "json", *argv], [out])
        bad += call_bad
        if code == 0:
            obj = json.loads(out.read_text())
            bad += misses(" ".join(argv), obj, obj.pop(key))
            out.unlink()
            written += 1
    assert not bad, "\n".join(bad)
    assert written == 24  # every drawn call lies in its accepted domain


def _zonesum_cases(seed=16):
    """Drawn ``fresnel zonesum`` argv: r0 and b log-uniform in [200, 1e4]
    wavelengths, the wavelength in [0.5, 1.5] and 200 to 800 zones."""
    rng = random.Random(seed)
    for _ in range(8):
        lam = rng.uniform(0.5, 1.5)
        r0, b = (lam * 10.0 ** rng.uniform(math.log10(200.0), 4.0) for _ in range(2))
        yield ["fresnel", "--r0", repr(r0), "--b", repr(b), "--lambda", repr(lam),
               "zonesum", "--n", str(rng.randint(200, 800))]


def test_zonesum_closed_form_through_the_cli(capsys, tmp_path):
    """Each drawn ``fresnel zonesum`` call, through ``cli.main`` under the rule of
    :func:`_call_violations`: |U_integral|, |U_zone_sum_averaged| and |U_free|
    within 1% of each other (test_acceptance.py's criterion 6), U_free within
    1e-10 relative of the 40-digit A e^(ik(r0 + b))/(r0 + b), and the echoed
    abs_U the averaged sum's |U| as written.  The domain is where the 1% holds:
    the spread reaches 1.25% at r0 = 10, b = 1000 wavelengths and 33% with 20
    zones, and stayed below 0.22% over 320 draws of this domain (U_free's error
    below 1.6e-11 over 200)."""
    import mpmath

    out, bad, written = tmp_path / "zonesum.json", [], 0
    for argv in _zonesum_cases():
        code, call_bad, echo = _call_violations(capsys, ["--format", "json", *argv], [out])
        bad += call_bad
        if code != 0:
            continue
        obj, label = json.loads(out.read_text()), " ".join(argv)
        out.unlink()
        written += 1
        mags = [obj[key]["abs"] for key in ("U_integral", "U_zone_sum_averaged", "U_free")]
        if max(mags) > 1.01 * min(mags):
            bad.append(f"{label}: |U_integral|, |U_averaged|, |U_free| = {mags} spread over 1%")
        geom = obj["geometry"]
        with mpmath.workdps(40):
            r0, b, lam, amp = (mpmath.mpf(geom[k]) for k in ("r0", "b", "wavelength", "amplitude"))
            free = complex(amp * mpmath.expj(2 * mpmath.pi / lam * (r0 + b)) / (r0 + b))
        got = complex(obj["U_free"]["re"], obj["U_free"]["im"])
        bad += _relative_misses(label, [("U_free", got, free)], 1e-10)
        if echo != f"abs_U={obj['U_zone_sum_averaged']['abs']:.17g}\n":
            bad.append(f"{label}: echoed {echo!r} for {obj['U_zone_sum_averaged']['abs']!r}")
    assert not bad, "\n".join(bad)
    assert written == 8  # every drawn call lies in its accepted domain


@pytest.mark.xfail(strict=True, reason="FOUND 2: beyond |x| ~ 38.6 the direct route reads "
                                       "every psi_n as 0, so coherent:30 reads 0 for 1/pi")
def test_wigner_closed_form_far_coherent_centre(capsys, tmp_path):
    cu = 30.0 * math.sqrt(2.0)
    case = ("coherent:30", (cu - 0.5, cu + 0.5), (-0.5, 0.5), lambda u, v: 1.0 / math.pi,
            [(1, 1)])
    assert not _oracle_violations(capsys, tmp_path, case, "direct")
