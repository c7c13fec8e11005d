"""Correctness checks on one finished invocation.

Every output is parsed here without the package's own readers, and the
cross-route deviations are measured against the paper's tolerances, so a
speed figure never comes from a wrong answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import FIELD_TOL, PARTITION_TOL, WIGNER_TOL, Invocation

#: Deviation/tolerance ratios below this are reported as this value.  On
#: the Wigner check it is 1e-13 absolute, the reordering error the
#: roadmap allows, so bit-level summation changes do not move route_dev.
ROUTE_DEV_FLOOR = 1e-7


class CheckFailure(Exception):
    """The invocation's result is wrong; the message says how."""


class KnownDefect(CheckFailure):
    """The result is wrong in exactly the way the invocation's known defect predicts."""


def digests(inv: Invocation, workdir: Path, stdout: str) -> dict:
    """sha256 of stdout and of every output file, by name."""
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for name in inv.outputs:
        out[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
    return out


def _parse_output(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise CheckFailure(f"{path.name}: no data rows")
    width = len(rows[0])
    for row in rows[1:]:
        if len(row) != width:
            raise CheckFailure(f"{path.name}: ragged row {row!r}")
        for tok in row:
            if not math.isfinite(float(tok)):
                raise CheckFailure(f"{path.name}: non-finite value {tok!r}")
    return rows


def parse_outputs(inv: Invocation, exit_code: int, workdir: Path) -> dict:
    """Every output file parsed, by name, after the exit code is checked.

    Raises CheckFailure on a wrong exit code or an unreadable output.
    """
    if exit_code != inv.exit_code:
        raise CheckFailure(f"exit code {exit_code}, expected {inv.exit_code}")
    try:
        return {name: _parse_output(workdir / name) for name in inv.outputs}
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"unreadable output: {exc}") from exc


def _stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise CheckFailure(f"stdout lacks {key}=")


def _field_rows(rows: list) -> list:
    """The w column of a ``u,v,w`` CSV as one list over v per u node."""
    if rows[0] != ["u", "v", "w"]:
        raise CheckFailure(f"field header {rows[0]!r}, expected u,v,w")
    v = sorted({float(row[1]) for row in rows[1:]})
    if any(abs(a + b) > 1e-12 for a, b in zip(v, reversed(v))):
        raise CheckFailure("v axis is not symmetric about 0")
    w = [float(row[2]) for row in rows[1:]]
    return [w[i:i + len(v)] for i in range(0, len(w), len(v))]


def _real_part_residual(inv: Invocation, parsed: dict) -> float:
    """Worst |direct - parity symmetrized in v| over the grid.

    The known defect of the direct route returns (W(u,v) + W(u,-v))/2, so
    its residual stays within the Wigner tolerance while the plain
    direct-vs-parity deviation does not.
    """
    direct, parity = (_field_rows(parsed[name]) for name in inv.outputs)
    return max(abs(d - (p + q) / 2)
               for drow, prow in zip(direct, parity)
               for d, p, q in zip(drow, prow, reversed(prow)))


def route_deviation(inv: Invocation, stdout: str, parsed: dict):
    """Route deviation as (deviation, tolerance), or None when there is none.

    Raises CheckFailure on a ``validate`` that does not print ``ok`` or a
    deviation beyond its tolerance, and KnownDefect when that deviation is
    the invocation's known defect and nothing else.
    """
    if inv.check == "validate":
        if stdout != "ok\n":
            raise CheckFailure(f"validate printed {stdout!r}")
        return None
    try:
        if inv.check == "wigner":
            dev, tol = _stdout_value(stdout, "max_abs_deviation"), WIGNER_TOL
        elif inv.check == "field":
            field = parsed[inv.outputs[0]]
            trio = [field[k]["abs"] for k in ("U_integral", "U_zone_sum_averaged", "U_free")]
            dev = max(abs(a - b) / min(a, b) for i, a in enumerate(trio) for b in trio[i + 1:])
            tol = FIELD_TOL
        elif inv.check == "partition":
            table = parsed[inv.outputs[0]]["table"]
            dev, tol = abs(math.fsum(row["p_overlap"] for row in table) - 1.0), PARTITION_TOL
        else:
            return None
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckFailure(f"malformed route output: {exc!r}") from exc
    if dev <= tol:
        return dev, tol
    message = f"route deviation {dev:.6g} beyond tolerance {tol:g}"
    if inv.known_defect:
        residual = _real_part_residual(inv, parsed)
        if residual <= tol:
            raise KnownDefect(f"{message}; direct equals parity symmetrized in v "
                              f"to {residual:.3g}: {inv.known_defect}")
    raise CheckFailure(message)
