"""Field import/export: PGM images (P2/P5) and CSV tables.

PGM stores integers 0..maxval; fields are mapped linearly onto a declared
value range [lo, hi] (the range travels alongside the file, e.g. in a report
JSON, since PGM itself cannot carry it).  Image rows run top to bottom and
are written with y decreasing, so the first raster row is the top edge of
the domain.  CSV rows are ``x,y,channel,value`` at cell centers.
"""

from __future__ import annotations

import io
import itertools
import os

import numpy as np

from .grids import _MAX_CELLS, Field, Grid2, Mask

__all__ = [
    "write_pgm",
    "read_pgm",
    "field_from_pgm",
    "mask_from_pgm",
    "field_to_csv",
    "field_from_csv",
]

_MAXVAL = 65535  # PGM's largest maxval, which write_pgm always uses


def write_pgm(path: str | os.PathLike, u: Field, lo: float, hi: float) -> None:
    """Quantize a scalar field onto [lo, hi] and write a 16-bit P5 PGM."""
    if u.channels != 1:
        raise ValueError("PGM export is for scalar fields")
    if not (hi > lo):
        raise ValueError("declared range must have hi > lo")
    v = u.values[:, :, 0]
    scaled = np.clip(np.rint((v - lo) / (hi - lo) * _MAXVAL), 0, _MAXVAL)
    # raster: rows top to bottom = y decreasing; columns = x increasing
    raster = scaled.T[::-1, :].astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{u.grid.nx} {u.grid.ny}\n{_MAXVAL}\n".encode("ascii"))
        fh.write(raster.tobytes())


def _read_tokens(fh: io.BufferedReader, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens.  A '#' starts a comment
    that runs to the end of its line and, like whitespace, ends a token."""
    tokens: list[bytes] = []
    tok = b""
    while len(tokens) < count:
        ch = fh.read(1)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
        if ch and not ch.isspace():
            tok += ch
        elif tok:
            tokens.append(tok)
            tok = b""
        elif not ch:
            raise ValueError("truncated PGM header")
    return tokens


def read_pgm(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    """Read P2/P5; returns (ints as (width, height) with y up, maxval)."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P2", b"P5"):
            raise ValueError("not a P2/P5 PGM file")
        w, h, maxval = (int(t) for t in _read_tokens(fh, 3))
        if w < 1 or h < 1 or not (0 < maxval <= _MAXVAL):
            raise ValueError("invalid PGM dimensions or maxval")
        if w * h > _MAX_CELLS:
            raise ValueError("PGM dimensions exceed the grid cell-count cap")
        if magic == b"P5":
            dtype = ">u2" if maxval > 255 else np.uint8
            count = w * h
            raw = np.frombuffer(fh.read(), dtype=dtype, count=count)
            raster = raw.reshape(h, w).astype(np.int64)
        else:
            data = fh.read().split()
            if len(data) < w * h:
                raise ValueError("truncated P2 body")
            try:
                raster = np.array([int(t) for t in data[: w * h]],
                                  dtype=np.int64).reshape(h, w)
            except OverflowError:  # a sample past int64 is past maxval
                raise ValueError("PGM sample is negative or exceeds "
                                 "declared maxval") from None
        if raster.min(initial=0) < 0 or raster.max(initial=0) > maxval:
            raise ValueError("PGM sample is negative or exceeds declared "
                             "maxval")
    # undo the top-to-bottom raster: values[i, j] with y increasing
    return raster[::-1, :].T.copy(), maxval


def field_from_pgm(path: str | os.PathLike, h: float, lo: float,
                   hi: float) -> Field:
    """Read a PGM and map its integers linearly onto [lo, hi], whose width
    ``hi - lo`` must be a finite float."""
    if not (hi > lo):
        raise ValueError("declared range must have hi > lo")
    if not np.isfinite(hi - lo):
        raise ValueError("declared range is too wide: hi - lo overflows "
                         "a float")
    ints, maxval = read_pgm(path)
    values = lo + ints.astype(float) / maxval * (hi - lo)
    grid = Grid2(ints.shape[0], ints.shape[1], h)
    return Field(grid, values[:, :, None])


def mask_from_pgm(path: str | os.PathLike, h: float) -> Mask:
    """Nonzero samples mark mask membership."""
    ints, _ = read_pgm(path)
    grid = Grid2(ints.shape[0], ints.shape[1], h)
    return Mask(grid, ints > 0)


def field_to_csv(path: str | os.PathLike, u: Field) -> None:
    """Write one ``x,y,channel,value`` row per cell and channel, in the
    order of ``u.values`` (x outermost), every number as its ``repr``.

    The rows of one x are joined and written together, so the table is
    never held in memory whole."""
    ys = [repr(float(y)) for y in u.grid.ys()]
    tails = [f",{y},{c}," for y in ys for c in range(u.channels)]
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,channel,value\n")
        for x, column in zip(u.grid.xs().tolist(), u.values):
            x = repr(x)
            fh.write("".join(f"{x}{t}{v!r}\n" for t, v
                             in zip(tails, column.ravel().tolist())))


# one CSV row as the reader parses it
_CSV_ROW = np.dtype([("x", float), ("y", float), ("channel", np.int64),
                     ("value", float)])


def _csv_rows(fh: io.TextIOBase):
    """The non-blank lines of ``fh``, each checked for four fields.

    A row must be ASCII and free of U+001C-U+001F: ``np.loadtxt`` reads
    some non-ASCII letters as digits and those four separators as blanks,
    where ``float`` and ``int`` reject them."""
    for line in fh:
        if not line.strip():
            continue
        if line.count(",") != 3:
            raise ValueError("CSV rows must have four columns")
        if (not line.isascii() or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("CSV rows must be ASCII without U+001C-U+001F")
        yield line


def field_from_csv(path: str | os.PathLike) -> Field:
    """Read the table ``field_to_csv`` writes.

    ``h`` is twice the smallest x.  Every row must sit at a cell centre
    ``((i+0.5)h, (j+0.5)h)`` (to 1e-9 h) with an integer channel >= 0, and
    every cell and channel must appear exactly once; anything else raises
    ``ValueError``.  One ``np.loadtxt`` pass parses the rows as they are
    read, so no Python object per row is kept.
    """
    with open(path) as fh:
        if fh.readline().strip() != "x,y,channel,value":
            raise ValueError("unexpected CSV header")
        rows = _csv_rows(fh)
        first = next(rows, None)
        if first is None:  # loadtxt would warn and return an empty table
            raise ValueError("empty CSV field")
        table = np.loadtxt(itertools.chain((first,), rows), dtype=_CSV_ROW,
                           delimiter=",", comments=None, ndmin=1)
    x, y, c, v = (table[k] for k in _CSV_ROW.names)
    h = 2.0 * float(np.min(x))
    if not (h > 0.0 and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("CSV coordinates must be positive and finite")
    with np.errstate(over="ignore"):  # a subnormal h: off is inf, rejected
        i = np.rint(x / h - 0.5)
        j = np.rint(y / h - 0.5)
        off = np.maximum(np.abs(x - (i + 0.5) * h),
                         np.abs(y - (j + 0.5) * h))
    if np.min(j) < 0.0 or np.max(off) > 1e-9 * h:
        raise ValueError(f"CSV coordinates are not cell centres (i+0.5)*h "
                         f"for h = {h!r}")
    if np.min(c) < 0:
        raise ValueError("CSV channel must be non-negative")
    nx, ny, nc = int(i.max()) + 1, int(j.max()) + 1, int(c.max()) + 1
    if nx * ny * nc > len(table):
        raise ValueError(f"CSV table has {len(table)} rows; {nx}x{ny} cells "
                         f"with {nc} channels need {nx * ny * nc}")
    i, j = i.astype(np.int64), j.astype(np.int64)
    if np.bincount((i * ny + j) * nc + c).max() > 1:
        raise ValueError("CSV table repeats a cell and channel")
    values = np.empty((nx, ny, nc))
    values[i, j, c] = v
    return Field(Grid2(nx, ny, h), values)
