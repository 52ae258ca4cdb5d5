"""PGM and CSV field serialization."""

import numpy as np
import pytest

from lingrow.grids import Field, Grid2
from lingrow.pgmio import (field_from_csv, field_from_pgm, field_to_csv,
                           mask_from_pgm, read_pgm, write_pgm)


def random_field(nx=7, ny=5, h=0.1, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    g = Grid2(nx, ny, h)
    return Field(g, rng.normal(size=(nx, ny, channels)))


def write_by_hand(path, ints, maxval, magic="P5"):
    """A P5 or P2 file of ints shaped (width, height) with y up; write_pgm
    writes 16-bit P5 only."""
    raster = ints.T[::-1, :]
    header = f"{magic}\n{ints.shape[0]} {ints.shape[1]}\n{maxval}\n".encode()
    if magic == "P2":
        body = "\n".join(" ".join(str(int(x)) for x in row) for row in raster)
        path.write_bytes(header + body.encode() + b"\n")
    else:
        dtype = ">u2" if maxval > 255 else np.uint8
        path.write_bytes(header + raster.astype(dtype).tobytes())


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_round_trip_quantization(tmp_path, maxval):
    u = random_field(seed=1)
    lo, hi = -4.0, 4.0
    path = tmp_path / "u.pgm"
    if maxval == 65535:
        write_pgm(path, u, lo, hi)
    else:
        ints = np.rint((u.values[:, :, 0] - lo) / (hi - lo) * maxval)
        write_by_hand(path, ints, maxval)
    back = field_from_pgm(path, u.grid.h, lo, hi)
    assert back.grid == u.grid
    tol = (hi - lo) / maxval / 2.0 * (1.0 + 1e-12)
    assert np.max(np.abs(back.values - u.values)) <= tol


def test_p2_and_p5_agree(tmp_path):
    u = random_field(seed=2)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, u, -4.0, 4.0)
    assert a.read_bytes().startswith(b"P5\n7 5\n65535\n")
    ia, ma = read_pgm(a)
    write_by_hand(b, ia, ma, magic="P2")
    ib, mb = read_pgm(b)
    assert ma == mb == 65535
    assert np.array_equal(ia, ib)


def test_raster_orientation(tmp_path):
    # top raster row must be the top edge of the domain (largest y)
    g = Grid2(2, 3, 1.0)
    u = Field.from_function(g, lambda x, y: y)
    path = tmp_path / "o.pgm"
    write_pgm(path, u, 0.0, 2.5)
    raw = path.read_bytes()
    header_end = raw.index(b"65535\n") + 6
    body = np.frombuffer(raw[header_end:], dtype=">u2").reshape(3, 2)
    # y=2.5 on top, y=0.5 below
    assert body[0, 0] == 65535 and body[-1, 0] == 13107
    ints, _ = read_pgm(path)
    assert ints.shape == (2, 3)
    assert np.all(ints[:, 2] == 65535) and np.all(ints[:, 0] == 13107)


def test_out_of_range_values_clip(tmp_path):
    g = Grid2(2, 2, 1.0)
    u = Field(g, np.array([[-10.0, 0.0], [0.5, 10.0]])[:, :, None])
    path = tmp_path / "c.pgm"
    write_pgm(path, u, 0.0, 1.0)
    ints, _ = read_pgm(path)
    assert ints[0, 0] == 0 and ints[1, 1] == 65535


def test_write_validation(tmp_path):
    u = random_field()
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, random_field(channels=2), 0.0, 1.0)
    with pytest.raises(ValueError):
        write_pgm(path, u, 1.0, 1.0)
    with pytest.raises(ValueError):
        field_from_pgm(path, 0.1, 2.0, -2.0)


def test_read_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError, match="not a P2/P5"):
        read_pgm(bad)

    bad.write_bytes(b"P5\n4 4")
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_pgm(bad)

    bad.write_bytes(b"P5\n2 2\n70000\n")
    with pytest.raises(ValueError, match="dimensions or maxval"):
        read_pgm(bad)

    bad.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_pgm(bad)

    bad.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(ValueError, match="truncated P2 body"):
        read_pgm(bad)

    bad.write_bytes(b"P2\n2 2\n10\n0 1 2 11\n")
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        read_pgm(bad)

    # a sample below 0 is rejected, not mapped below lo
    bad.write_bytes(b"P2\n2 2\n255\n0 1 -7 3\n")
    with pytest.raises(ValueError, match="negative"):
        field_from_pgm(bad, 0.5, 0.0, 1.0)


def test_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# made by hand\n2 # width\n2\n9\n1 2 3 4\n")
    ints, maxval = read_pgm(path)
    assert maxval == 9
    # raster rows are top to bottom: (1, 2) is the top edge
    assert np.array_equal(ints, np.array([[3, 1], [4, 2]]))
    # a comment may also end a token with no space before it
    path.write_bytes(b"P2 2#width\n2 9#maxval\n1 2 3 4\n")
    again, maxval = read_pgm(path)
    assert maxval == 9 and np.array_equal(again, ints)


def test_mask_from_pgm(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P2\n3 2\n255\n0 255 0\n7 0 0\n")
    mask = mask_from_pgm(path, 0.5)
    assert mask.grid == Grid2(3, 2, 0.5)
    # bottom raster row is y = 0: cells (0,0)=7 and (1,1)=255 are members
    assert mask.member[0, 0] and mask.member[1, 1]
    assert int(mask.member.sum()) == 2


def test_csv_round_trip_exact(tmp_path):
    u = random_field(seed=3, channels=2, h=0.25)
    path = tmp_path / "u.csv"
    field_to_csv(path, u)
    back = field_from_csv(path)
    assert back.grid == u.grid
    assert np.array_equal(back.values, u.values)


def test_csv_matches_the_per_cell_loop(tmp_path):
    """The table is byte for byte what a loop writing one ``repr`` row per
    cell and channel gives, also for tiny, huge and signed-zero values."""
    u = random_field(nx=5, ny=3, h=0.3, seed=6, channels=2)
    u.values[0, 0, 0] = 1e-05
    u.values[1, 2, 1] = 1e+16
    u.values[4, 1, 0] = -0.0
    u.values[2, 0, 1] = 3.0
    path = tmp_path / "u.csv"
    field_to_csv(path, u)
    xs, ys = u.grid.xs(), u.grid.ys()
    rows = ["x,y,channel,value\n"]
    for i in range(5):
        for j in range(3):
            for c in range(2):
                rows.append(f"{float(xs[i])!r},{float(ys[j])!r},{c},"
                            f"{float(u.values[i, j, c])!r}\n")
    assert path.read_bytes() == "".join(rows).encode("ascii")
    assert b",-0.0\n" in path.read_bytes()


def test_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,0,3\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        field_from_csv(path)
    path.write_text("x,y,channel,value\n")
    with pytest.raises(ValueError, match="empty CSV field"):
        field_from_csv(path)
    path.write_text("x,y,channel,value\n0.05,0.05,0\n")
    with pytest.raises(ValueError, match="four columns"):
        field_from_csv(path)
    path.write_text("x,y,channel,value\n0.05,inf,0,1\n")
    with pytest.raises(ValueError, match="positive and finite"):
        field_from_csv(path)


def csv_lines(tmp_path, channels=1):
    """The rows of a 3x4 field's table, header first."""
    path = tmp_path / "u.csv"
    field_to_csv(path, random_field(seed=5, nx=3, ny=4, channels=channels,
                                    h=0.1))
    return path, path.read_text().splitlines()


def test_csv_rejects_a_missing_row(tmp_path):
    path, lines = csv_lines(tmp_path)
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(ValueError, match="11 rows; 3x4 cells with 1 "
                                         "channels need 12"):
        field_from_csv(path)


def test_csv_rejects_a_negative_channel(tmp_path):
    path, lines = csv_lines(tmp_path)
    x, y, _, v = lines[1].split(",")
    lines.append(f"{x},{y},-1,{v}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="channel must be non-negative"):
        field_from_csv(path)


def test_csv_rejects_a_duplicate_row(tmp_path):
    path, lines = csv_lines(tmp_path, channels=2)
    path.write_text("\n".join(lines + [lines[7]]) + "\n")
    with pytest.raises(ValueError, match="repeats a cell and channel"):
        field_from_csv(path)


def test_csv_rejects_off_centre_coordinates(tmp_path):
    path, lines = csv_lines(tmp_path)
    _, y, ch, v = lines[4].split(",")
    lines[4] = f"0.13,{y},{ch},{v}"  # between the centres 0.05 and 0.15
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not cell centres"):
        field_from_csv(path)


def test_csv_accepts_rounded_cell_centres(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("x,y,channel,value\n0.05,0.05,0,1\n0.05,0.15,0,2\n"
                    "0.15,0.05,0,3\n0.15,0.15,0,4\n")
    u = field_from_csv(path)
    assert u.grid == Grid2(2, 2, 0.1)
    assert u.values[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
