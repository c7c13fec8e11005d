"""Batch command-line surface emitting CSV/JSON for external plotting.

Exit codes: 0 success, 2 rejected input, 3 numerical failure.  Output
files are deterministic: fixed summation order, no timestamps, CSV floats
printed with 17 significant digits and JSON floats as Python's shortest
round-trip repr (both lossless for doubles).  Every file, and each
``key=value`` line echoed to stdout after it, goes through ``_write``.

Each subcommand imports the one numerics module it computes with when it
runs, so start-up loads the standard library only.  ``fresnel`` and
``spin`` compute on the standard library alone; ``wigner`` and
``overlap`` load numpy with their module.  ``wigner`` parses its state
and grid specs first, so a refused spec loads no numpy either.  Tables
are formatted and written a block of rows at a time.  ``validate`` computes
nothing: it reads the file as written, with no line-end translation, and
imports only the field module (``phasewave.field``, standard library only)
to check a Wigner field and nothing beyond the standard library for the
other tables.  ``wigner --method both`` fails (exit 3, no file written)
when its two routes differ by more than ROUTE_TOL.
Warnings reach stderr as one ``warning: ...`` line each.  ``fresnel
zonesum`` writes the field at P by both routes and by free propagation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

from .errors import NumericsError, ValidationError

#: Largest max |direct - parity| that ``wigner --method both`` accepts.
ROUTE_TOL = 1e-6
#: Table rows formatted and written at a time.
_ROWS_PER_WRITE = 4096


def _fmt(value: float) -> str:
    return "%.17g" % value


def _complex_dict(z: complex) -> dict:
    return {
        "re": z.real,
        "im": z.imag,
        "abs": abs(z),
        "phase": math.atan2(z.imag, z.real),
    }


def _write(out: str | None, chunks, **echo) -> None:
    """Write the text chunks of ``chunks`` in turn to the file ``out``, or to
    stdout, then each ``echo`` item to stdout as one ``key=value`` line."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)
    sys.stdout.writelines(f"{key}={_fmt(value)}\n" for key, value in echo.items())


def parse_state(spec: str) -> list:
    """State mini-grammar: vacuum | fock:<n> | coherent:<re>[,<im>] | mixture:...

    Parsed with the standard library into (component, weight) pairs, a
    component being its spec text and a Fock index or complex amplitude; a
    pure state is the one pair (component, 1.0).
    """
    spec = spec.strip()
    if not spec.startswith("mixture:"):
        return [(_parse_pure(spec), 1.0)]
    pairs = []
    for part in spec[len("mixture:"):].split(";"):
        if "@" not in part:
            raise ValidationError(f"mixture component {part!r} lacks a @weight")
        sub, weight = part.rsplit("@", 1)
        pairs.append((_parse_pure(sub), float(weight)))
    return pairs


def _malformed(spec: str, exc: Exception) -> ValidationError:
    return ValidationError(f"malformed state spec {spec!r}: {exc}")


def _parse_pure(spec: str) -> tuple[str, int | complex]:
    spec = spec.strip()
    try:
        if spec == "vacuum":
            return spec, 0
        if spec.startswith("fock:"):
            n = int(spec[len("fock:"):])
            if n < 0:
                raise ValidationError("Fock index must be nonnegative")
            return spec, n
        if spec.startswith("coherent:"):
            parts = spec[len("coherent:"):].split(",")
            if len(parts) not in (1, 2):
                raise ValidationError(f"bad coherent amplitude in {spec!r}")
            return spec, complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    except (ValueError, TypeError) as exc:
        raise _malformed(spec, exc) from exc
    raise ValidationError(f"unknown state spec {spec!r}")


def build_state(pairs: list) -> fock.DensityMatrix:
    """The density matrix of ``parse_state``'s pairs: a Fock state per index,
    a coherent state per amplitude, mixed by their weights."""
    from . import fock

    states = []
    for (spec, value), weight in pairs:
        make = fock.FockState.fock if isinstance(value, int) else fock.coherent_amplitudes
        try:
            states.append((make(value), weight))
        except (ValueError, TypeError) as exc:
            raise _malformed(spec, exc) from exc
    return fock.DensityMatrix.mixture(states)


def parse_grid(spec: str, spec_v: str | None) -> field.PhaseGrid:
    """Grid mini-grammar min:max:count, symmetric unless a v-spec overrides."""
    from . import field

    def axis(text):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec {text!r} is not min:max:count")
        try:
            return float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"grid spec {text!r}: {exc}") from exc

    u_lo, u_hi, n_u = axis(spec)
    v_lo, v_hi, n_v = axis(spec_v) if spec_v is not None else (u_lo, u_hi, n_u)
    return field.PhaseGrid(u_lo, u_hi, v_lo, v_hi, n_u, n_v)


#: Every table the CLI writes, by ``validate --kind``: its JSON key and columns.
_TABLES = {
    "zones": ("zones", ("n", "rho", "re_Un", "im_Un", "abs_Un", "phase_Un")),
    "overlap": ("table", ("n", "p_overlap", "p_poisson")),
    "spin-belts": ("belts", ("m", "z_lo", "z_hi", "area")),
    "spin-bands": ("bands", ("n", "m", "rho_lo", "rho_hi", "area")),
}


def _table(fmt: str, kind: str, rows, **head):
    """The text of the ``kind`` table of ``rows``: CSV, or JSON records under its
    key after ``head``, one block of _ROWS_PER_WRITE rows per chunk, so a large
    table is never held as one string."""
    key, columns = _TABLES[kind]
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, _ROWS_PER_WRITE)), [])
    if fmt == "json":
        # json.dumps separates list items by ", ", so the records can follow
        # the text that opens their list one block at a time
        yield json.dumps({**head, key: []})[:-2]
        sep = ""
        for block in blocks:
            yield sep + ", ".join(json.dumps(dict(zip(columns, row))) for row in block)
            sep = ", "
        yield "]}\n"
        return
    yield ",".join(columns) + "\n"
    for block in blocks:
        yield "".join(",".join(map(_fmt, row)) + "\n" for row in block)


# -- subcommand handlers -----------------------------------------------------


def _route_deviation(direct: field.WignerField, parity: field.WignerField) -> float:
    """max |direct - parity| over the grid; NumericsError naming the worst node
    when it exceeds ROUTE_TOL."""
    diff = abs(direct.values - parity.values)
    worst = int(diff.argmax())
    deviation = float(diff.flat[worst])
    if deviation > ROUTE_TOL:
        grid = direct.grid
        i, k = divmod(worst, grid.n_v)
        raise NumericsError(
            f"the direct and parity routes disagree: max |direct - parity| = "
            f"{deviation:.3e} exceeds {ROUTE_TOL:.0e} at node "
            f"(u, v) = ({grid.u_axis[i]!r}, {grid.v_axis[k]!r})"
        )
    return deviation


def cmd_wigner(args) -> int:
    pairs = parse_state(args.state)
    grid = parse_grid(args.grid, args.grid_v)
    if args.method == "both" and args.out is None:
        raise ValidationError("--method both needs --out to place two files")
    rho = build_state(pairs)
    from . import wigner

    fields = []
    if args.method != "parity":
        fields.append(wigner.wigner_direct(rho, grid))
    if args.method != "direct":
        fields.append(wigner.wigner_parity(rho, grid, args.n_max))
    outs, echo = [args.out], {}
    if args.method == "both":
        echo["max_abs_deviation"] = _route_deviation(*fields)
        path = Path(args.out)
        outs.append(str(path.with_name(path.stem + ".parity" + path.suffix)))
    for out, wf in zip(outs, fields):
        _write(out, [wf.to_json() + "\n" if args.format == "json" else wf.to_csv()],
               **(echo if wf is fields[-1] else {}))
    return 0


def cmd_overlap(args) -> int:
    from dataclasses import asdict

    from . import semiclassics

    head = asdict(semiclassics.compare_poisson(args.beta, args.n_bands))
    p_overlap, p_poisson = head.pop("p_overlap"), head.pop("p_poisson")
    rows = zip(range(p_overlap.size), p_overlap.tolist(), p_poisson.tolist())
    _write(args.out, _table(args.format, "overlap", rows, **head))
    return 0


def cmd_fresnel(args) -> int:
    from dataclasses import asdict

    from . import fresnel

    geom = fresnel.FresnelGeometry(
        r0=args.r0, b=args.b, wavelength=args.wavelength, amplitude=args.amplitude
    )
    if args.subaction == "zones":
        rows = fresnel.zone_table(geom, args.n, args.nodes)
        slope = fresnel.fit_zone_scaling(geom, args.n)
        _write(args.out, _table(args.format, "zones", rows, slope_loglog=slope),
               slope_loglog=slope)
        return 0

    if args.subaction == "zonesum":
        # the zone sums check the budgets, then that the boundaries are resolved,
        # as zones and plate do, before the boundary angle is taken
        u_raw, u_avg = fresnel._partial_sums(geom, args.n, args.nodes)
        theta_max = fresnel.zone_boundary_angle(geom, args.n)
        u_int = fresnel.huygens_integral(geom, theta_max, args.nodes)
        summary = {
            "geometry": {**asdict(geom), "n_zones": args.n},
            "U_free": _complex_dict(geom.free_field()),
            "U_integral": _complex_dict(u_int),
            "U_zone_sum_raw": _complex_dict(u_raw),
            "U_zone_sum_averaged": _complex_dict(u_avg),
        }
        _write(args.out, [json.dumps(summary) + "\n"], abs_U=abs(u_avg))
        return 0

    open_zones, n_zones = _parse_mask(args.open, args.n)  # plate, the one subaction left
    u_plate = fresnel.zone_plate(geom, open_zones, n_zones, args.nodes)
    u_free = geom.free_field()
    ratio = abs(u_plate) / abs(u_free)
    summary = {
        "geometry": asdict(geom),
        "open_zones": open_zones,
        "U_plate": _complex_dict(u_plate),
        "U_free": _complex_dict(u_free),
        "amplitude_ratio": ratio,
    }
    _write(args.out, [json.dumps(summary) + "\n"], amplitude_ratio=ratio)
    return 0


def _parse_mask(spec: str, count: int) -> tuple[list[int], int]:
    """Open-zone mask: odd/even take the first ``count`` of that parity."""
    if count < 0:
        raise ValidationError("zone count must be nonnegative")
    if spec == "odd":
        zones = [2 * i + 1 for i in range(count)]
    elif spec == "even":
        zones = [2 * i for i in range(count)]
    elif spec == "all":
        zones = list(range(count))
    else:
        try:
            zones = sorted(set(int(tok) for tok in spec.split(",") if tok != ""))
        except ValueError as exc:
            raise ValidationError(f"bad zone mask {spec!r}: {exc}") from exc
        if zones and zones[0] < 0:
            raise ValidationError("zone indices must be nonnegative")
    n_zones = (max(zones) + 1) if zones else max(count, 1)
    return zones, n_zones


def cmd_spin(args) -> int:
    from . import spinmap

    if args.subaction == "belts":
        sphere = spinmap.SpinSphere(args.j)
        rows = [
            (b.m, b.z_lo, b.z_hi, 2.0 * math.pi * sphere.radius * b.width)
            for b in spinmap.belts(args.j)
        ]
        _write(args.out, _table(args.format, "spin-belts", rows, j=args.j))
        return 0

    rows = spinmap.band_table(args.j)  # project, the one subaction left
    _write(args.out, _table(args.format, "spin-bands", rows, j=args.j))
    return 0


def _refuse_constant(token: str):
    raise ValidationError(f"non-finite value {token!r}")


def cmd_validate(args) -> int:
    with open(args.path, newline="") as fh:  # no line-end translation
        text = fh.read()
    is_json = text.lstrip().startswith("{")
    if args.kind == "wigner":
        from .field import WignerField

        if is_json:
            body, end = WignerField.from_json(text).to_json(), "\n"
        else:
            body, end = WignerField.from_csv(text).to_csv(), ""
        # text == body + end, without building that copy of a large field
        if len(text) != len(body) + len(end) or not text.startswith(body) or text[len(body):] != end:
            raise ValidationError("round-trip re-serialization differs from the file")
    elif is_json:
        obj = json.loads(text, parse_constant=_refuse_constant)
        if json.dumps(obj) + "\n" != text:
            raise ValidationError("JSON round-trip differs from the file")
        key, columns = _TABLES[args.kind]
        if not (args.kind == "zones" and "geometry" in obj):  # a zonesum or plate summary
            records = obj.get(key)
            if not isinstance(records, list) or any(
                not isinstance(row, dict) or tuple(row) != columns for row in records
            ):
                raise ValidationError(f"JSON holds no {key!r} list of records with columns "
                                      f"{','.join(columns)}")
    else:
        columns = _TABLES[args.kind][1]
        lines = text.split("\n")
        expected = ",".join(columns)
        if lines[0] != expected:
            raise ValidationError(f"header mismatch: expected {expected!r}")
        if lines.pop() != "":
            raise ValidationError("the last line does not end in a newline")
        for line in lines[1:]:
            tokens = line.split(",")
            if len(tokens) != len(columns):
                raise ValidationError(f"row {line!r} does not hold {len(columns)} columns")
            for tok in tokens:
                value = float(tok)
                if not math.isfinite(value):
                    raise ValidationError(f"non-finite value {tok!r}")
                if _fmt(value) != tok:
                    raise ValidationError(f"token {tok!r} does not round-trip at "
                                          "17 significant digits")
    sys.stdout.write("ok\n")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="phasewave",
        description="Phase-space and zone-construction numerics, batch CSV/JSON output.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="sample the Wigner function on a grid",
                       parents=[common])
    p.add_argument("--state", required=True)
    p.add_argument("--grid", required=True, help="min:max:count, both axes")
    p.add_argument("--grid-v", default=None, help="override for the v axis")
    p.add_argument("--method", choices=("direct", "parity", "both"), default="direct")
    p.add_argument("--n-max", type=int, default=None, help="truncation override")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("overlap", help="overlap-area vs Poisson occupation report", parents=[common])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-bands", type=int, default=None)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("fresnel", help="zone tables, field integrals, zone plates", parents=[common])
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="wavelength", type=float, required=True)
    p.add_argument("--amplitude", type=float, default=1.0)
    fsub = p.add_subparsers(dest="subaction", required=True)
    pz = fsub.add_parser("zones", parents=[common])
    pz.add_argument("--n", type=int, required=True)
    pz.add_argument("--nodes", type=int, default=16)
    ps = fsub.add_parser("zonesum", parents=[common])
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--nodes", type=int, default=16)
    pp = fsub.add_parser("plate", parents=[common])
    pp.add_argument("--open", required=True, help="odd | even | all | comma list")
    pp.add_argument("--n", type=int, required=True, help="number of open zones")
    pp.add_argument("--nodes", type=int, default=16)
    p.set_defaults(func=cmd_fresnel)

    p = sub.add_parser("spin", help="sphere belts and their plane images", parents=[common])
    p.add_argument("--j", type=float, required=True)
    p.add_argument("subaction", choices=("belts", "project"))
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("validate", help="re-read a file this tool wrote", parents=[common])
    p.add_argument("--kind", required=True,
                   choices=("wigner", *_TABLES))
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)
    return parser


def _join_negative_values(argv):
    """Fuse each --flag with a next token that starts with a single '-', such as
    --grid -4:4:81 or --beta -1e-5, so argparse reads it as the flag's value."""
    fused, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok.startswith("--") and nxt.startswith("-") and not nxt.startswith("--"):
            fused.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            fused.append(tok)
            i += 1
    return fused


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One ``warning: ...`` line on stderr, with no path or source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # global flags default here: SUPPRESS keeps pre- and post-subcommand
    # occurrences from clobbering each other
    if not hasattr(args, "out"):
        args.out = None
    if not hasattr(args, "format"):
        args.format = "csv"
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
