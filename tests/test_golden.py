"""Regression oracle: the README's table and summary commands against stored output.

Each file under ``golden/`` is the exact output of one command below
(``<case>.out`` the file written by ``--out``, ``<case>.parity.out`` the
parity field of ``wigner --method both``, ``<case>.stdout`` what went to
stdout).  Spin outputs must stay byte-equal.  Fresnel values
are quadrature sums, so a change of summation order may move them: complex
values may drift by 1e-13 |U| and phases by 1e-13 absolute, while the
geometry (``rho``, ``slope_loglog``, the zone masks) stays exact.  Wigner
fields keep their header and node axes exactly; values and the reported
route deviation may drift by 1e-13 absolute.  The overlap table keeps its
key order, ``n``, ``p_overlap``, ``beta`` and the Poisson moments exactly;
its Poisson terms (one libm ``exp`` each) and its sums may drift by 1e-13
relative.
"""

import json
import math
from pathlib import Path

import pytest

from phasewave.cli import main

GOLDEN = Path(__file__).parent / "golden"
GEOM = ("fresnel", "--r0", "100", "--b", "100", "--lambda", "1")
TOL = 1e-13
#: JSON keys whose values may drift by TOL relative.
RELATIVE = ("amplitude_ratio", "p_poisson", "overlap_mean", "overlap_variance",
            "tv_distance")

#: case -> (argv, writes an --out file, byte-exact)
CASES = {
    "zones": ((*GEOM, "zones", "--n", "100"), True, False),
    "zonesum": ((*GEOM, "zonesum", "--n", "200"), True, False),
    "plate": ((*GEOM, "plate", "--open", "odd", "--n", "20"), False, False),
    "spin_project": (("spin", "--j", "200", "project"), False, True),
    "spin_belts": (("spin", "--j", "0.5", "belts"), False, True),
    "overlap": (("--format", "json", "overlap", "--beta", "5"), True, False),
    "wigner_fock1_both": (
        ("wigner", "--state", "fock:1", "--grid", "-4:4:21", "--method", "both"),
        True, False,
    ),
    "wigner_coherent_direct": (
        ("wigner", "--state", "coherent:0.6,0.8", "--grid", "-3:3:15",
         "--method", "direct"),
        True, False,
    ),
    "wigner_mixture_direct": (
        ("wigner", "--state", "mixture:fock:1@0.5;coherent:1@0.5",
         "--grid", "-5:5:15", "--method", "direct"),
        True, False,
    ),
    "wigner_coherent_parity": (
        ("wigner", "--state", "coherent:0.6,0.8", "--grid", "-3:3:15",
         "--method", "parity"),
        True, False,
    ),
    "wigner_mixture_parity": (
        ("wigner", "--state", "mixture:fock:1@0.5;coherent:1@0.5",
         "--grid", "-5:5:15", "--method", "parity"),
        True, False,
    ),
}


def _check_complex(got: dict, want: dict, where: str) -> None:
    scale = TOL * want["abs"]
    for key in ("re", "im", "abs"):
        assert abs(got[key] - want[key]) <= scale, f"{where}.{key}"
    _check_phase(got["phase"], want["phase"], where)


def _check_phase(got: float, want: float, where: str) -> None:
    # the zone terms alternate in sign, so a phase may sit next to +-pi
    diff = math.remainder(got - want, 2.0 * math.pi)
    assert abs(diff) <= TOL, f"{where}.phase"


def _check_json(got, want, where: str) -> None:
    if isinstance(want, dict) and want.keys() == {"re", "im", "abs", "phase"}:
        _check_complex(got, want, where)
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _check_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _check_json(g, w, f"{where}[{i}]")
    elif where.endswith(RELATIVE):
        assert got == pytest.approx(want, rel=TOL, abs=0.0), where
    else:
        assert got == want, where


def _check_stdout(got: str, want: str, case: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), case
    for g, w in zip(got_lines, want_lines):
        if w.startswith("{"):
            _check_json(json.loads(g), json.loads(w), case)
            continue
        key, _, value = w.partition("=")
        g_key, _, g_value = g.partition("=")
        assert g_key == key, case
        if key == "slope_loglog":
            assert g_value == value, case
        elif key == "max_abs_deviation":
            assert abs(float(g_value) - float(value)) <= TOL, case
        else:
            assert float(g_value) == pytest.approx(float(value), rel=TOL, abs=0.0), case


def _check_zone_csv(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines[1:], want_lines[1:]):
        g_tok, w_tok = g.split(","), w.split(",")
        assert g_tok[:2] == w_tok[:2], "n and rho are exact"
        g_val, w_val = [float(t) for t in g_tok[2:]], [float(t) for t in w_tok[2:]]
        scale = TOL * w_val[2]
        for a, b in zip(g_val[:3], w_val[:3]):
            assert abs(a - b) <= scale, f"zone {w_tok[0]}"
        _check_phase(g_val[3], w_val[3], f"zone {w_tok[0]}")


def _check_field_csv(got: str, want: str, where: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0], where
    assert len(got_lines) == len(want_lines), where
    for g, w in zip(got_lines[1:], want_lines[1:]):
        g_u, g_v, g_w = g.split(",")
        w_u, w_v, w_w = w.split(",")
        assert (g_u, g_v) == (w_u, w_v), f"{where}: node axes are exact"
        assert abs(float(g_w) - float(w_w)) <= TOL, f"{where} at ({w_u}, {w_v})"


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, capsys, tmp_path):
    argv, writes_file, exact = CASES[case]
    out = tmp_path / f"{case}.out"
    assert main((["--out", str(out)] if writes_file else []) + list(argv)) == 0
    stdout = capsys.readouterr().out
    want_stdout = (GOLDEN / f"{case}.stdout").read_text()
    if exact:
        assert stdout == want_stdout
        if writes_file:
            assert out.read_bytes() == (GOLDEN / f"{case}.out").read_bytes()
        return
    _check_stdout(stdout, want_stdout, case)
    if writes_file:
        got, want = out.read_text(), (GOLDEN / f"{case}.out").read_text()
        if case == "zones":
            _check_zone_csv(got, want)
        elif argv[0] == "wigner":
            _check_field_csv(got, want, case)
            if "both" in argv:
                name = f"{case}.parity.out"
                want_parity = (GOLDEN / name).read_text()
                _check_field_csv((tmp_path / name).read_text(), want_parity, name)
        else:
            _check_json(json.loads(got), json.loads(want), case)
