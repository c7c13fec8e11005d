"""Seeded workload generator: each workload is a list of CLI invocations.

The seed varies phases, offsets and geometries but never the amount of
work, so every seed of one workload costs the same.  The program under
test only ever sees the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Wigner direct vs parity, as printed by ``wigner --method both``.
WIGNER_TOL = 1e-6
#: Pairwise modulus spread of the three Fresnel field routes (criterion 6).
FIELD_TOL = 0.01
#: Deviation of the overlap partition sum from one.
PARTITION_TOL = 1e-12

#: Why the complex-phase coherent state fails its cross-route check.
CHORD_REAL_PART_DEFECT = (
    "wigner._chord_integrand keeps only Re F(u, y), so the direct route "
    "returns (W(u,v) + W(u,-v))/2 for states with complex coherences"
)


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its argv, the exit code it must return and its files.

    ``check`` names the cross-route check applied to the result:
    ``wigner`` (deviation printed on stdout), ``field`` (the three Fresnel
    routes in the JSON output), ``partition`` (overlap table sums to one)
    or ``validate`` (stdout must read ``ok``).  ``field_files`` are the
    outputs (or, for ``validate``, inputs) holding a serialized Wigner
    field, which the traced run counts as serialized and parsed bytes.
    """

    name: str
    argv: tuple
    exit_code: int = 0
    outputs: tuple = ()
    inputs: tuple = ()
    check: str | None = None
    field_files: tuple = ()
    known_defect: str | None = None


def _wigner(name, state, grid, out, *, method="both", fmt=None, grid_v=None,
            known_defect=None):
    argv = ["--out", out]
    if fmt:
        argv = ["--format", fmt] + argv
    argv += ["wigner", "--state", state, "--grid", grid]
    if grid_v:
        argv += ["--grid-v", grid_v]
    argv += ["--method", method]
    outputs = (out,)
    if method == "both":
        stem, _, suffix = out.rpartition(".")
        outputs = (out, f"{stem}.parity.{suffix}")
    return Invocation(
        name=name, argv=tuple(argv), outputs=outputs,
        check="wigner" if method == "both" else None,
        field_files=outputs, known_defect=known_defect,
    )


def _validate(name, kind, path, *, field=False):
    return Invocation(
        name=name, argv=("validate", "--kind", kind, path), inputs=(path,),
        check="validate", field_files=(path,) if field else (),
    )


def phase_routes(rng: random.Random, tiny: bool) -> list[Invocation]:
    """Both Wigner routes on coherent, Fock and mixed states, plus two probes.

    The parity route dominates, through the displacement kernel.  The
    complex-phase coherent state is always present: it reproduces the
    known real-part defect of the direct route on every seed.
    """
    grid = "-7:7:5" if tiny else "-7:7:11"
    sign = rng.choice((1.0, -1.0))
    # phase kept at least pi/6 away from 0 and pi, where the defect vanishes
    phi = rng.uniform(math.pi / 6, 5 * math.pi / 6) + rng.choice((0.0, math.pi))
    beta = complex(2.0 * math.cos(phi), 2.0 * math.sin(phi))
    bad_state = rng.choice(
        ("fock:-1", "coherent:1,2,3", "squeezed:1", "mixture:fock:1", "coherent:2j")
    )
    return [
        _wigner("coherent-real", f"coherent:{2.0 * sign!r}", grid, "real.csv"),
        _wigner("coherent-phase", f"coherent:{beta.real!r},{beta.imag!r}", grid,
                "phase.csv", known_defect=CHORD_REAL_PART_DEFECT),
        _wigner("fock3", "fock:3", "-5:5:9" if tiny else "-5:5:41", "fock3.csv"),
        _wigner("mixture", f"mixture:fock:1@0.5;coherent:{sign!r}@0.5",
                "-5:5:7" if tiny else "-5:5:15", "mixture.csv"),
        Invocation("reject-state", ("wigner", "--state", bad_state, "--grid", grid),
                   exit_code=2),
        Invocation("reject-truncation",
                   ("wigner", "--state", f"coherent:{2.0 * sign!r}", "--grid", "-7:7:3",
                    "--method", "parity", "--n-max", "40"),
                   exit_code=3),
    ]


def zones_belts(rng: random.Random, tiny: bool) -> list[Invocation]:
    """Fresnel zone quadrature and spin band tables; no Fock-space work.

    The geometry is rescaled as a whole (r0 = b = 1000 wavelengths), so the
    zone count and the route agreement do not depend on the seed.
    """
    lam = round(rng.uniform(0.6, 1.6), 6)
    geom = ("fresnel", "--r0", repr(1000.0 * lam), "--b", repr(1000.0 * lam),
            "--lambda", repr(lam))
    n_sum, n_zones, n_plate = (200, 40, 20) if tiny else (800, 800, 400)
    j = (20 if tiny else 320) + rng.choice((0.0, 0.5))
    beta = round(rng.uniform(4.5, 5.5), 6)
    return [
        Invocation("zonesum", ("--out", "field.json") + geom + ("zonesum", "--n", str(n_sum)),
                   outputs=("field.json",), check="field"),
        Invocation("zones", ("--out", "zones.csv") + geom + ("zones", "--n", str(n_zones)),
                   outputs=("zones.csv",)),
        Invocation("plate", ("--out", "plate.json") + geom
                   + ("plate", "--open", "odd", "--n", str(n_plate)),
                   outputs=("plate.json",)),
        Invocation("spin-project", ("--out", "bands.csv", "spin", "--j", repr(j), "project"),
                   outputs=("bands.csv",)),
        Invocation("spin-belts", ("--out", "belts.csv", "spin", "--j", "0.5", "belts"),
                   outputs=("belts.csv",)),
        Invocation("overlap", ("--format", "json", "--out", "overlap.json",
                               "overlap", "--beta", repr(beta)),
                   outputs=("overlap.json",), check="partition"),
        _validate("validate-zones", "zones", "zones.csv"),
        _validate("validate-bands", "spin-bands", "bands.csv"),
        _validate("validate-overlap", "overlap", "overlap.json"),
    ]


def io_roundtrip(rng: random.Random, tiny: bool) -> list[Invocation]:
    """A dense direct-route field written as CSV and JSON and read back.

    Only the u axis moves with the seed: the v range fixes the chord
    sampling, so the cost stays the same.
    """
    shift = round(rng.uniform(-0.5, 0.5), 6)
    count = 21 if tiny else 301
    grid = f"{-5.0 + shift!r}:{5.0 + shift!r}:{count}"
    grid_v = f"-5:5:{count}"
    return [
        _wigner("dense-csv", "fock:1", grid, "dense.csv", method="direct", grid_v=grid_v),
        _wigner("dense-json", "fock:1", grid, "dense.json", method="direct",
                grid_v=grid_v, fmt="json"),
        _validate("validate-csv", "wigner", "dense.csv", field=True),
        _validate("validate-json", "wigner", "dense.json", field=True),
        _wigner("readme", "fock:1", "-4:4:11" if tiny else "-4:4:81", "w.csv"),
        _validate("validate-readme", "wigner", "w.csv", field=True),
        _validate("validate-readme-parity", "wigner", "w.parity.csv", field=True),
    ]


WORKLOADS = {
    "phase-routes": phase_routes,
    "zones-belts": zones_belts,
    "io-roundtrip": io_roundtrip,
}


def generate(workload: str, seed: int, *, tiny: bool = False) -> list[Invocation]:
    """The invocations of ``workload`` for ``seed``, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, tiny)
