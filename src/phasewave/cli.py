"""Batch command-line surface emitting CSV/JSON for external plotting.

Exit codes: 0 success, 2 rejected input, 3 numerical failure.  Output
files are deterministic: fixed summation order, no timestamps, CSV floats
printed with 17 significant digits and JSON floats as Python's shortest
round-trip repr (both lossless for doubles).  ``_table`` writes every table,
a block of rows at a time, and ``_summary`` every ``fresnel`` summary; each
file, and each ``key=value`` line echoed to stdout after it, goes through
``_write``.  ``validate`` computes nothing: it reads a file's values into
the types its writer takes and accepts the file only if the writer writes
those values back byte for byte, a Wigner field through ``phasewave.field``.

Each subcommand imports the one numerics module it computes with when it
runs, so start-up loads the standard library only; only ``wigner`` loads
numpy, after its state and grid specs parse.  ``wigner --method both``
fails (exit 3, no file written) when its routes differ by more than
``wigner.ROUTE_TOL``.  Warnings reach stderr as one ``warning: ...`` line each.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

from .errors import NumericsError, ValidationError, check_rewrite

#: Table rows formatted and written at a time.
_ROWS_PER_WRITE = 4096


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
    sys.stdout.writelines(f"{key}={value:.17g}\n" for key, value in echo.items())


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
        component = _parse_pure(sub)
        try:
            pairs.append((component, float(weight)))
        except ValueError as exc:
            raise _malformed(part, exc) from exc
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
#: The keys of a ``FresnelGeometry`` (``asdict``'s), spelled here so that
#: ``validate`` loads no numerics module.
_GEOMETRY = ("r0", "b", "wavelength", "amplitude")
_COMPLEX = tuple(_complex_dict(0j))
#: The entries of each ``fresnel`` summary, in the order written: the keys of
#: the dict each holds, or None for a value of its own.
_SUMMARIES = {
    "zonesum": {"geometry": (*_GEOMETRY, "n_zones"), "U_free": _COMPLEX,
                "U_integral": _COMPLEX, "U_zone_sum_raw": _COMPLEX,
                "U_zone_sum_averaged": _COMPLEX},
    "plate": {"geometry": _GEOMETRY, "open_zones": None, "U_plate": _COMPLEX,
              "U_free": _COMPLEX, "amplitude_ratio": None},
}
#: How the writers type a column's or entry's values; every other value is a finite float.
_TYPES = {"n": int, "n_zones": int, "open_zones": lambda zones: [_typed(z, "n") for z in zones]}


def _table(fmt: str, kind: str, rows, /, **head):
    """The text of the ``kind`` table of ``rows``: CSV, or JSON records under its
    key after ``head``, one block of _ROWS_PER_WRITE rows per chunk, so a large
    table is never held as one string."""
    key, columns = _TABLES[kind]
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, _ROWS_PER_WRITE)), [])
    if fmt == "json":
        # json.dumps separates list items by ", ", so the records can follow
        # the text that opens their list one block at a time, each block the
        # inside of its own list
        yield json.dumps({**head, key: []})[:-2]
        sep = ""
        for block in blocks:
            yield sep + json.dumps([dict(zip(columns, row)) for row in block])[1:-1]
            sep = ", "
        yield "]}\n"
        return
    line = ",".join(["%.17g"] * len(columns)) + "\n"  # one %-template per block
    yield ",".join(columns) + "\n"
    for block in blocks:
        yield (line * len(block)) % tuple(itertools.chain.from_iterable(block))


def _summary(name: str, values) -> list:
    """The text of the ``name`` summary of ``values``, given in its entries' order."""
    return [json.dumps(dict(zip(_SUMMARIES[name], values))) + "\n"]


# -- subcommand handlers -----------------------------------------------------


def _route_deviation(direct: field.WignerField, parity: field.WignerField) -> float:
    """max |direct - parity| over the grid; NumericsError naming the worst node
    when it exceeds ``wigner.ROUTE_TOL``."""
    from .wigner import ROUTE_TOL

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


def cmd_wigner(args) -> None:
    pairs = parse_state(args.state)
    grid = parse_grid(args.grid, args.grid_v)
    if args.method == "both" and args.out is None:
        raise ValidationError("--method both needs --out to place two files")
    if args.method == "direct" and args.n_max is not None:
        raise ValidationError("--n-max sets the parity route's truncation; --method direct "
                              "runs no parity route")
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
        _write(out, [wf.to_json() if args.format == "json" else wf.to_csv()],
               **(echo if wf is fields[-1] else {}))


def cmd_overlap(args) -> None:
    from . import semiclassics

    head = dict(vars(semiclassics.compare_poisson(args.beta)))
    p_overlap, p_poisson = head.pop("p_overlap"), head.pop("p_poisson")
    rows = zip(range(len(p_overlap)), p_overlap, p_poisson)
    _write(args.out, _table(args.format, "overlap", rows, **head))


def cmd_fresnel(args) -> None:
    from dataclasses import asdict

    from . import fresnel

    geom = fresnel.FresnelGeometry(
        r0=args.r0, b=args.b, wavelength=args.wavelength, amplitude=args.amplitude
    )
    if args.subaction == "zones":
        rows = fresnel.zone_table(geom, args.n)
        slope = fresnel.fit_zone_scaling(geom, args.n)
        _write(args.out, _table(args.format, "zones", rows, slope_loglog=slope),
               slope_loglog=slope)
        return

    if args.subaction == "zonesum":
        # the zone sums check the budgets before the boundary angle is taken
        u_raw, u_avg = fresnel._partial_sums(geom, args.n)
        theta_max = fresnel.zone_boundary_angle(geom, args.n)
        u_int = fresnel.huygens_integral(geom, theta_max)
        _write(args.out, _summary("zonesum", (
            {**asdict(geom), "n_zones": args.n},
            *map(_complex_dict, (geom.free_field(), u_int, u_raw, u_avg)),
        )), abs_U=abs(u_avg))
        return

    open_zones, n_zones = _parse_mask(args.open, args.n)  # plate, the one subaction left
    u_plate = fresnel.zone_plate(geom, open_zones, n_zones)
    u_free = geom.free_field()
    ratio = abs(u_plate) / abs(u_free)
    _write(args.out, _summary("plate", (
        asdict(geom), list(open_zones), _complex_dict(u_plate), _complex_dict(u_free), ratio,
    )), amplitude_ratio=ratio)


def _parse_mask(spec: str, count: int) -> tuple[range | list[int], int]:
    """Open-zone mask, ascending: odd/even take the first ``count`` of that parity, as
    a range, so no list of ``count`` zones is built before the quadrature limit."""
    if count < 0:
        raise ValidationError("zone count must be nonnegative")
    masks = {"odd": range(1, 2 * count, 2), "even": range(0, 2 * count, 2), "all": range(count)}
    if spec in masks:
        zones = masks[spec]
    else:
        try:
            zones = sorted(set(int(tok) for tok in spec.split(",") if tok != ""))
        except ValueError as exc:
            raise ValidationError(f"bad zone mask {spec!r}: {exc}") from exc
        if zones and zones[0] < 0:
            raise ValidationError("zone indices must be nonnegative")
    n_zones = zones[-1] + 1 if zones else max(count, 1)
    return zones, n_zones


def cmd_spin(args) -> None:
    from . import spinmap

    if args.subaction == "belts":
        sphere = spinmap.SpinSphere(args.j)
        rows = [
            (b.m, b.z_lo, b.z_hi, 2.0 * math.pi * sphere.radius * b.width)
            for b in spinmap.belts(args.j)
        ]
        _write(args.out, _table(args.format, "spin-belts", rows, j=args.j))
        return

    rows = spinmap.band_table(args.j)  # project, the one subaction left
    _write(args.out, _table(args.format, "spin-bands", rows, j=args.j))


def _typed(value, name: str):
    """``value`` as its writer types the values under ``name``, if that is finite."""
    try:
        typed = _TYPES.get(name, float)(value)
        if type(typed) is list or math.isfinite(typed):  # OverflowError: an int past doubles
            return typed
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name}={value!r:.60} is not a finite value of its writer's type")


def _record(obj, names) -> list:
    """The values of the JSON object ``obj`` under ``names``, typed, in that order; a
    name it lacks, or every name if ``obj`` is no object, reads as null."""
    return [_typed(obj.get(name) if type(obj) is dict else None, name) for name in names]


def _csv_rows(lines, columns):
    """Each CSV body line's values, typed by their columns; a refusal names its line."""
    for number, line in enumerate(lines, 2):
        try:
            yield [_typed(token, column)
                   for column, token in zip(columns, line.split(","), strict=True)]
        except ValidationError as exc:
            raise ValidationError(f"line {number}: {exc}") from None
        except ValueError:  # zip's: more or fewer values than columns
            raise ValidationError(f"line {number} does not hold {len(columns)} values") from None


def cmd_validate(args) -> None:
    with open(args.path, newline="") as fh:  # no line-end translation
        text = fh.read()
    is_json = text.lstrip().startswith("{")
    if args.kind == "wigner":
        from .field import WignerField

        (WignerField.from_json if is_json else WignerField.from_csv)(text)
        sys.stdout.write("ok\n")
        return
    key, columns = _TABLES[args.kind]
    if not is_json:
        chunks = _table("csv", args.kind, _csv_rows(text.split("\n")[1:-1], columns))
    else:
        try:
            obj = json.loads(text)
        except RecursionError as exc:
            raise ValidationError(f"malformed JSON: {exc}") from exc
        name = next((name for name, entries in _SUMMARIES.items()
                     if args.kind == "zones" and entries.keys() == obj.keys()), None)
        if name is not None:
            chunks = _summary(name, [
                _typed(obj[entry], entry) if keys is None
                else dict(zip(keys, _record(obj[entry], keys)))
                for entry, keys in _SUMMARIES[name].items()
            ])
        else:
            records = obj.pop(key, None)
            # a head value is a float whatever its key, so its name is set apart
            head = {entry: _typed(value, "head " + entry) for entry, value in obj.items()}
            rows = (_record(row, columns) for row in (records if type(records) is list else []))
            chunks = _table("json", args.kind, rows, **head)
    check_rewrite(text, chunks)
    sys.stdout.write("ok\n")


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
    p.add_argument("--n-max", type=int, default=None, help="parity corner-check truncation")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("overlap", help="overlap-area vs Poisson occupation report", parents=[common])
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("fresnel", help="zone tables, field integrals, zone plates", parents=[common])
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="wavelength", type=float, required=True)
    p.add_argument("--amplitude", type=float, default=1.0)
    fsub = p.add_subparsers(dest="subaction", required=True)
    for action in ("zones", "zonesum", "plate"):
        pa = fsub.add_parser(action, parents=[common])
        if action == "plate":
            pa.add_argument("--open", required=True, help="odd | even | all | comma list")
        pa.add_argument("--n", type=int, required=True,
                        help="number of open zones" if action == "plate" else None)
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
    fused, flag = [], False  # flag: the last token kept is an unfused --flag
    for tok in argv:
        if flag and tok.startswith("-") and not tok.startswith("--"):
            fused[-1] += "=" + tok
            flag = False
        else:
            fused.append(tok)
            flag = tok.startswith("--")
    return fused


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One ``warning: ...`` line on stderr, with no path or source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # the global flags default in the namespace: their SUPPRESS defaults keep
        # pre- and post-subcommand occurrences from clobbering each other
        args = build_parser().parse_args(argv, argparse.Namespace(out=None, format="csv"))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args.func(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ValidationError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
