"""Field import/export: PGM images (P2/P5) and CSV tables.

PGM stores integers 0..maxval; fields are mapped linearly onto a declared
value range [lo, hi] (the range travels alongside the file, e.g. in a report
JSON, since PGM itself cannot carry it).  Image rows run top to bottom and
are written with y decreasing, so the first raster row is the top edge of
the domain.  CSV rows are ``x,y,channel,value`` at cell centers.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .grids import Field, Grid2, Mask

__all__ = [
    "write_pgm",
    "read_pgm",
    "field_from_pgm",
    "mask_from_pgm",
    "field_to_csv",
    "field_from_csv",
]


def write_pgm(path: str | os.PathLike, u: Field, lo: float, hi: float,
              maxval: int = 65535, binary: bool = True) -> None:
    """Quantize a scalar field onto [lo, hi] and write P5 (or P2) PGM."""
    if u.channels != 1:
        raise ValueError("PGM export is for scalar fields")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    if not (hi > lo):
        raise ValueError("declared range must have hi > lo")
    v = u.values[:, :, 0]
    scaled = np.clip(np.rint((v - lo) / (hi - lo) * maxval), 0, maxval)
    # raster: rows top to bottom = y decreasing; columns = x increasing
    raster = scaled.T[::-1, :].astype(np.uint16 if maxval > 255 else np.uint8)
    header = f"P5\n{u.grid.nx} {u.grid.ny}\n{maxval}\n" if binary \
        else f"P2\n{u.grid.nx} {u.grid.ny}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            if maxval > 255:
                fh.write(raster.astype(">u2").tobytes())
            else:
                fh.write(raster.tobytes())
        else:
            body = "\n".join(" ".join(str(int(x)) for x in row)
                             for row in raster)
            fh.write(body.encode("ascii"))
            fh.write(b"\n")


def _read_tokens(fh: io.BufferedReader, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, honoring '#' comments."""
    tokens: list[bytes] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            if ch == b"#":
                while ch not in (b"\n", b""):
                    ch = fh.read(1)
                break
            tok += ch
        tokens.append(tok)
    return tokens


def read_pgm(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    """Read P2/P5; returns (ints as (width, height) with y up, maxval)."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P2", b"P5"):
            raise ValueError("not a P2/P5 PGM file")
        w, h, maxval = (int(t) for t in _read_tokens(fh, 3))
        if w < 1 or h < 1 or not (0 < maxval <= 65535):
            raise ValueError("invalid PGM dimensions or maxval")
        if magic == b"P5":
            dtype = ">u2" if maxval > 255 else np.uint8
            count = w * h
            raw = np.frombuffer(fh.read(), dtype=dtype, count=count)
            raster = raw.reshape(h, w).astype(np.int64)
        else:
            data = fh.read().split()
            if len(data) < w * h:
                raise ValueError("truncated P2 body")
            raster = np.array([int(t) for t in data[: w * h]],
                              dtype=np.int64).reshape(h, w)
        if raster.min(initial=0) < 0 or raster.max(initial=0) > maxval:
            raise ValueError("PGM sample is negative or exceeds declared "
                             "maxval")
    # undo the top-to-bottom raster: values[i, j] with y increasing
    return raster[::-1, :].T.copy(), maxval


def field_from_pgm(path: str | os.PathLike, h: float, lo: float,
                   hi: float) -> Field:
    """Read a PGM and map its integers linearly onto [lo, hi]."""
    if not (hi > lo):
        raise ValueError("declared range must have hi > lo")
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


def field_from_csv(path: str | os.PathLike) -> Field:
    """Read the table ``field_to_csv`` writes.

    ``h`` is twice the smallest x.  Every row must sit at a cell centre
    ``((i+0.5)h, (j+0.5)h)`` (to 1e-9 h) with a channel >= 0, and every
    cell and channel must appear exactly once; anything else raises
    ``ValueError``.
    """
    with open(path) as fh:
        if fh.readline().strip() != "x,y,channel,value":
            raise ValueError("unexpected CSV header")
        rows = [line.split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError("empty CSV field")
    if any(len(r) != 4 for r in rows):
        raise ValueError("CSV rows must have four columns")
    x, y, v = (np.array([float(r[k]) for r in rows]) for k in (0, 1, 3))
    c = np.array([int(r[2]) for r in rows])
    h = 2.0 * float(np.min(x))
    if not (h > 0.0 and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("CSV coordinates must be positive and finite")
    i = np.rint(x / h - 0.5)
    j = np.rint(y / h - 0.5)
    off = np.maximum(np.abs(x - (i + 0.5) * h), np.abs(y - (j + 0.5) * h))
    if np.min(j) < 0.0 or np.max(off) > 1e-9 * h:
        raise ValueError(f"CSV coordinates are not cell centres (i+0.5)*h "
                         f"for h = {h!r}")
    if np.min(c) < 0:
        raise ValueError("CSV channel must be non-negative")
    nx, ny, nc = int(i.max()) + 1, int(j.max()) + 1, int(c.max()) + 1
    if nx * ny * nc > len(rows):
        raise ValueError(f"CSV table has {len(rows)} rows; {nx}x{ny} cells "
                         f"with {nc} channels need {nx * ny * nc}")
    i, j = i.astype(np.int64), j.astype(np.int64)
    if np.bincount((i * ny + j) * nc + c).max() > 1:
        raise ValueError("CSV table repeats a cell and channel")
    values = np.empty((nx, ny, nc))
    values[i, j, c] = v
    return Field(Grid2(nx, ny, h), values)
