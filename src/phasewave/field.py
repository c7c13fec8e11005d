"""Wigner values on a rectangular phase grid, and their CSV and JSON codecs.

Standard library only, so ``validate --kind wigner`` reads, checks and
re-writes a field without importing numpy.  A reader accepts a file
exactly when its writer writes those bytes.  The grid axes are lists of
floats equal bit for bit to ``np.linspace``; the numerics wrap them with
``np.asarray``.  A field's ``values`` ndarray is built, and numpy
imported, on its first use.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from itertools import chain

from .errors import ValidationError, check_rewrite

#: Hard bound of the dimensionless Wigner function, with roundoff slack.
WIGNER_BOUND = 1.0 / math.pi + 1e-6

#: Largest n_u * n_v a PhaseGrid may hold (the Fresnel quadrature-point budget).
MAX_GRID_NODES = 4_000_000

#: Characters of CSV body parsed per block; a block ends at a newline.
_BLOCK_CHARS = 1 << 20

_CSV_HEADER = "u,v,w\n"


def _axis(lo, hi, n: int) -> list:
    """n nodes from lo to hi, computed as np.linspace(lo, hi, n) computes them."""
    lo, hi = float(lo), float(hi)
    div = n - 1
    step = (hi - lo) / div
    if step == 0.0:  # the span underflows over div steps: subnormal spans
        span = hi - lo
        nodes = [i / div * span + lo for i in range(n)]
    else:
        nodes = [i * step + lo for i in range(n)]
    nodes[-1] = hi
    return nodes


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sampling of the (u, v) phase plane."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    n_u: int
    n_v: int

    def __post_init__(self):
        for lo, hi, n, name in (
            (self.u_min, self.u_max, self.n_u, "u"),
            (self.v_min, self.v_max, self.n_v, "v"),
        ):
            if any(isinstance(b, bool) or not isinstance(b, numbers.Real)
                   for b in (lo, hi)):
                raise ValidationError(f"{name} bounds must be real numbers")
            if not isinstance(n, numbers.Integral):
                raise ValidationError(f"n_{name} must be an integer")
            if not all(abs(b) <= sys.float_info.max for b in (lo, hi)):  # an int may exceed it
                raise ValidationError(f"{name} bounds must be finite doubles")
            lo, hi = float(lo), float(hi)  # as the axes hold them: 2**60 + 1 is 2**60
            if hi <= lo:
                raise ValidationError(f"{name}_max must exceed {name}_min")
            if hi - lo == math.inf:  # Python floats: no overflow warning
                raise ValidationError(f"{name}_max - {name}_min overflows a double")
            if n < 2:
                raise ValidationError(f"n_{name} must be at least 2")
        if self.n_u * self.n_v > MAX_GRID_NODES:
            raise ValidationError(
                f"{self.n_u} x {self.n_v} grid nodes exceed the limit of {MAX_GRID_NODES}"
            )

    @property
    def u_axis(self) -> list:
        return _axis(self.u_min, self.u_max, self.n_u)

    @property
    def v_axis(self) -> list:
        return _axis(self.v_min, self.v_max, self.n_v)

    @property
    def cell_area(self) -> float:
        du = (self.u_max - self.u_min) / (self.n_u - 1)
        dv = (self.v_max - self.v_min) / (self.n_v - 1)
        return du * dv

    @property
    def max_extent(self) -> float:
        return max(abs(self.u_min), abs(self.u_max), abs(self.v_min), abs(self.v_max))


class WignerField:
    """Wigner values sampled on a PhaseGrid, shape (n_u, n_v).

    The samples are held as one flat list of floats in C order, checked on
    construction for shape, finiteness and the Wigner bound 1/pi;
    ``values``, a read-only (n_u, n_v) ndarray, is built on first use.

    Serialized layouts (both lossless for doubles):

    * CSV: header ``u,v,w``, then one row ``u,v,w`` per node, u-major with
      v varying fastest, i.e. ``values`` in C order; every number ``%.17g``.
    * JSON: ``{"grid": {"u_min", "u_max", "v_min", "v_max", "n_u", "n_v"},
      "values": [[...n_v...], ...n_u rows...]}``, written by ``json.dumps``,
      so each float is Python's shortest round-trip repr (``-1.0``, not ``-1``).

    Each reader builds the field from a file's grid and values and accepts
    the file only if the writer writes it again byte for byte (``check_rewrite``),
    so the writer itself checks the node order, the spacing, every token and
    every line end; non-finite values and values beyond 1/pi are refused first.
    """

    def __init__(self, grid: PhaseGrid, values):
        rows = values.tolist() if hasattr(values, "tolist") else values
        try:
            shaped = len(rows) == grid.n_u and all(len(row) == grid.n_v for row in rows)
            flat = list(map(float, chain.from_iterable(rows))) if shaped else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"values are not rows of numbers: {exc}") from exc
        if flat is None:
            raise ValidationError(f"values do not form {grid.n_u} rows of {grid.n_v} numbers")
        self._adopt(grid, flat)

    def _adopt(self, grid: PhaseGrid, flat: list) -> None:
        if not all(map(math.isfinite, flat)):
            raise ValidationError("Wigner values must be finite")
        peak = max(map(abs, flat))
        if peak > WIGNER_BOUND:
            raise ValidationError(
                f"values exceed the Wigner bound 1/pi: max |W| = {peak:.6e}"
            )
        self.grid = grid
        self._flat = flat
        self._values = None

    @property
    def values(self):
        """The samples as a read-only (n_u, n_v) float ndarray."""
        if self._values is None:
            import numpy as np

            vals = np.array(self._flat, dtype=float).reshape(self.grid.n_u, self.grid.n_v)
            vals.setflags(write=False)
            self._values = vals
        return self._values

    def normalization(self) -> float:
        """Riemann-sum integral of the field; 1 for a well-contained state."""
        return float(self.values.sum() * self.grid.cell_area)

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """CSV with header u,v,w, u-major nodes (v fastest), 17 significant digits."""
        us = ["%.17g," % x for x in self.grid.u_axis]
        vs = ["%.17g," % x for x in self.grid.v_axis]
        # one %-template holds the header and every node's "u,v," text, so the
        # text is built once; neither the header nor the axes contain a "%"
        w = "%.17g\n"
        template = "".join([_CSV_HEADER] + [u + (w + u).join(vs) + w for u in us])
        return template % tuple(self._flat)

    @classmethod
    def from_csv(cls, text: str) -> "WignerField":
        """Read the text :meth:`to_csv` writes, and nothing else.

        The grid comes from the first and the last row, the count of
        distinct u tokens and the count of rows; the body is read in
        newline-aligned blocks.
        """
        if not text.startswith(_CSV_HEADER):
            raise ValidationError("expected header u,v,w")
        pos = len(_CSV_HEADER)
        first = text[pos:text.find("\n", pos)].split(",")
        last = text[text.rfind("\n", 0, -1) + 1:-1].split(",")
        u_tokens, ws = set(), []
        try:
            (u_lo, v_lo, _), (u_hi, v_hi, _) = first, last
            bounds = float(u_lo), float(u_hi), float(v_lo), float(v_hi)
            while pos < len(text):
                end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
                tokens = text[pos:end - 1].replace("\n", ",").split(",")
                u_tokens.update(tokens[0::3])
                ws += map(float, tokens[2::3])
                pos = end
        except ValueError as exc:
            raise ValidationError(f"malformed field CSV: {exc}") from exc
        n_u = len(u_tokens)
        grid = PhaseGrid(*bounds, n_u, len(ws) // n_u)
        del ws[grid.n_u * grid.n_v:]  # rows past the last whole u row: the re-write ends there
        field = cls.__new__(cls)
        field._adopt(grid, ws)
        check_rewrite(text, [field.to_csv()])
        return field

    def to_json_dict(self) -> dict:
        n_v, flat = self.grid.n_v, self._flat
        return {"grid": asdict(self.grid),  # the six fields, in the order written
                "values": [flat[i : i + n_v] for i in range(0, len(flat), n_v)]}

    def _json_chunks(self):
        """The text of :meth:`to_json`, one row of values per chunk."""
        obj = self.to_json_dict()
        first, *rows = obj["values"]
        yield '{"grid": ' + json.dumps(obj["grid"]) + ', "values": [' + json.dumps(first)
        yield from (", " + json.dumps(row) for row in rows)
        yield "]}\n"

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict())`` and a newline, in one join of the rows'
        texts: json.dumps would hold every number's text apart before its join."""
        return "".join(self._json_chunks())

    @classmethod
    def from_json(cls, text: str) -> "WignerField":
        """Read the text :meth:`to_json` writes, and nothing else."""
        try:
            obj = json.loads(text)
            g, rows = obj["grid"], obj["values"]
            bounds = g["u_min"], g["u_max"], g["v_min"], g["v_max"], g["n_u"], g["n_v"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed field JSON: {exc}") from exc
        field = cls(PhaseGrid(*bounds), rows)
        del obj, g, rows  # the parsed rows, freed before the re-write
        check_rewrite(text, field._json_chunks())  # one row's text at a time
        return field
