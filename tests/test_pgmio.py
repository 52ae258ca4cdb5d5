"""PGM and CSV field serialization."""

import io
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingrow.grids import Field, Grid2
from lingrow.pgmio import (_read_tokens, field_from_csv, field_from_pgm,
                           field_to_csv, mask_from_pgm, read_pgm, write_pgm)

from .oracles import csv_field_by_rows, read_tokens_two_rules


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

    # sizes whose product is past int64 are checked before the body is read
    bad.write_bytes(b"P5 99999999999999999999999999\n3 2\n255\n\x00\x01")
    with pytest.raises(ValueError, match="cell-count cap"):
        read_pgm(bad)

    bad.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(ValueError, match="truncated P2 body"):
        read_pgm(bad)

    bad.write_bytes(b"P2\n2 2\n10\n0 1 2 11\n")
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        read_pgm(bad)
    bad.write_bytes(b"P2\n2 2\n10\n0 1 2 99999999999999999999\n")
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        read_pgm(bad)

    # a sample below 0 is rejected, not mapped below lo
    bad.write_bytes(b"P2\n2 2\n255\n0 1 -7 3\n")
    with pytest.raises(ValueError, match="negative"):
        field_from_pgm(bad, 0.5, 0.0, 1.0)


# header and sample numbers: small ones, sizes past the grid cap, numbers
# past int64 either way, and text that int() rejects
PGM_NUMBER = st.one_of(st.integers(-1, 4), st.integers(2 ** 12, 2 ** 30),
                       st.integers(2 ** 62, 2 ** 90),
                       st.integers(-2 ** 90, -2 ** 62),
                       st.sampled_from([255, 65535, 65536, "1_0", "0x10",
                                        "nan", "\u0663"]))


@st.composite
def pgm_bytes(draw):
    """Any bytes, or a valid P2 or P5 file of at most 3 x 3 samples with up
    to three of its numbers (a P5 file's header numbers) replaced from
    ``PGM_NUMBER``, and maybe cut short."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([9, 255, 65535]))
    samples = draw(st.lists(st.integers(0, maxval), min_size=w * h,
                            max_size=w * h))
    p2 = draw(st.booleans())
    tokens = [w, h, maxval, *samples] if p2 else [w, h, maxval]
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(PGM_NUMBER)
    data = (b"P2 " if p2 else b"P5\n") + " ".join(map(str, tokens)).encode()
    if not p2:
        dtype = ">u2" if maxval > 255 else np.uint8
        data += b"\n" + np.array(samples, dtype=dtype).tobytes()
    if draw(st.integers(0, 3)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


@settings(max_examples=200)
@given(pgm_bytes())
def test_pgm_readers_raise_only_value_error(data):
    """Whatever the bytes, the readers return or raise ``ValueError``, which
    the command line reports as exit code 2 with one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.pgm")
        with open(path, "wb") as fh:
            fh.write(data)
        outcome(read_pgm, path)
        outcome(lambda p: field_from_pgm(p, 0.1, 0.0, 1.0), path)


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
    path.write_bytes(b"P2\r\n2 2\r\n9\r\n1 2 3 4\r\n")
    again, maxval = read_pgm(path)
    assert maxval == 9 and np.array_equal(again, ints)


# the header bytes: the six that bytes.isspace() accepts, '#', digits and
# letters
HEADER_BYTES = np.frombuffer(b" \r\n\t\x0b\x0c#0123456789Pab", dtype=np.uint8)


def test_tokenizer_matches_the_two_rule_reference():
    """On 20 000 seeded headers of ``HEADER_BYTES``, each cut at a random
    length of 0 to 24 bytes, the tokenizer reads the reference's tokens and
    leaves the same body bytes, or raises the same error."""
    rng = np.random.default_rng(32)
    rows = HEADER_BYTES[rng.integers(0, HEADER_BYTES.size, (20_000, 24))]
    sizes = rng.integers(0, 25, rows.shape[0])
    counts = rng.integers(1, 4, rows.shape[0])
    for row, size, count in zip(rows, sizes.tolist(), counts.tolist()):
        data = row[:size].tobytes()
        seen = []
        for read in (_read_tokens, read_tokens_two_rules):
            fh = io.BytesIO(data)
            try:
                seen.append((read(fh, count), fh.read()))
            except ValueError as err:
                seen.append((str(err), fh.read()))
        assert seen[0] == seen[1], data


# a 2x2 8-bit P5 file with the tokens 2, 2, 255 and the body bytes its
# header leaves: one whitespace byte or one comment, its newline included,
# ends maxval, so a CRLF header leaves its LF to the body
HEADER_CASES = {
    "comment after the magic": (b"P5#c\n2 2\n255\n\x01\x02\x03\x04",
                                b"\x01\x02\x03\x04"),
    "comment after maxval": (b"P5 2 2\n255#c\n\n #\x01", b"\n #\x01"),
    "CRLF": (b"P5\r\n2 2\r\n255\r\n\x01\x02\x03\x04",
             b"\n\x01\x02\x03\x04"),
    "EOF after maxval": (b"P5 2 2 255", b""),
}


@pytest.mark.parametrize("name", HEADER_CASES)
def test_header_cases(tmp_path, name):
    data, body = HEADER_CASES[name]
    for read in (_read_tokens, read_tokens_two_rules):
        fh = io.BytesIO(data[2:])
        assert read(fh, 3) == [b"2", b"2", b"255"]
        assert fh.read() == body
    path = tmp_path / "h.pgm"
    path.write_bytes(data)
    if len(body) < 4:
        with pytest.raises(ValueError):
            read_pgm(path)
        return
    ints, maxval = read_pgm(path)
    raster = np.frombuffer(body[:4], dtype=np.uint8).reshape(2, 2)
    assert maxval == 255 and np.array_equal(ints, raster[::-1].T)


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


@pytest.mark.parametrize("row, message", [
    ("0.05,0.05,1.0,1", None),             # a channel is an integer
    ("# 0.05,0.05,0,1", None),             # '#' starts no comment
    ("#", "four columns"),
    ("0.05,0.05,0,1_0", None),             # no Python-only literals
    ("0.05,0.05,0,\u0661", "ASCII"),       # no non-ASCII digit
    ("0.05,0.05,0,\x1c1", "ASCII"),        # no U+001C-U+001F around a number
    # h = 2e-320 puts x = 0.15 beyond the largest float in cells, with no
    # overflow warning
    ("1e-320,0.05,0,1\n0.15,0.15,0,1", "not cell centres"),
])
def test_csv_rejects_what_float_or_int_would_not_read_alike(tmp_path, row,
                                                             message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,channel,value\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        field_from_csv(path)


def test_csv_reader_keeps_no_python_object_per_row(tmp_path):
    """The traced peak of reading a 64x64 table: 416 bytes per row while
    every row was kept as four Python strings, 73 with one loadtxt pass
    over the rows as they are read."""
    path = tmp_path / "u.csv"
    field_to_csv(path, random_field(nx=64, ny=64, h=1.0 / 64, seed=7))
    field_from_csv(path)
    tracemalloc.start()
    try:
        field_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (64 * 64) < 128


# ---------------------------------------------------------------------------
# the reader against the row-by-row oracle on mutated tables

# literals that float() or int() read unlike loadtxt
UNLIKE_LOADTXT = ["1_0", "0.0_5", "\u0661", "\xa01", "\x1c1", "1\x1f"]
# numbers, odd literals and text
NUMBER_TEXT = st.one_of(
    st.integers(-2, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(UNLIKE_LOADTXT),
    st.sampled_from([" 1 ", "\t2\x0b", "+1", "-0", "1.0", "1e-320", "0x1",
                     "nan", "-inf", "", "#1", "9223372036854775808"]),
    st.text(st.characters(codec="utf-8"), max_size=5),
)
BLANK_LINES = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0\u2028"),
                      max_size=3)


@st.composite
def mutated_tables(draw):
    """A valid table after up to three mutations, as its rows and line end."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    nc = draw(st.integers(1, 2))
    h = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0]))
    u = random_field(nx=nx, ny=ny, h=h, channels=nc,
                     seed=draw(st.integers(0, 9)))
    values = u.values.tolist()
    rows = [f"{x!r},{y!r},{c},{values[i][j][c]!r}"
            for i, x in enumerate(u.grid.xs().tolist())
            for j, y in enumerate(u.grid.ys().tolist()) for c in range(nc)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows) - 1)) if rows else 0
        op = draw(st.sampled_from(["drop", "repeat", "swap", "replace",
                                   "unlike", "blank", "add column",
                                   "drop column"]))
        if op == "blank":
            rows.insert(k, draw(BLANK_LINES))
        elif not rows:
            continue
        elif op == "drop":
            del rows[k]
        elif op == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[k])
        elif op == "swap":
            m = draw(st.integers(0, len(rows) - 1))
            rows[k], rows[m] = rows[m], rows[k]
        elif op == "replace":
            fields = rows[k].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(NUMBER_TEXT)
            rows[k] = ",".join(fields)
        elif op == "unlike":  # as the value, which nothing else checks
            rows[k] = (rows[k].rpartition(",")[0] + ","
                       + draw(st.sampled_from(UNLIKE_LOADTXT)))
        elif op == "add column":
            rows[k] += "," + draw(NUMBER_TEXT)
        else:
            rows[k] = rows[k].rpartition(",")[0]
    return rows, draw(st.sampled_from(["\n", "\r\n"]))


def rejected_only_here(path):
    """A row the oracle may read and ``field_from_csv`` never does: one
    with an underscore, a non-ASCII character or one of U+001C-U+001F."""
    with open(path) as fh:
        fh.readline()
        return any(line.strip() and (
            "_" in line or not line.isascii()
            or any(chr(k) in line for k in range(0x1C, 0x20)))
            for line in fh)


def outcome(read, path, rejections=(ValueError,)):
    try:
        return read(path)
    except rejections as err:
        return err


@settings(max_examples=400)
@given(mutated_tables())
def test_csv_reader_matches_the_row_by_row_oracle(table):
    """The field of a mutated table is the oracle's bit for bit, or both
    reject the table: the reader with ``ValueError`` and never a warning.
    The reader alone rejects only the rows ``rejected_only_here`` names,
    and always."""
    rows, end = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(end.join(["x,y,channel,value", *rows, ""]))
        # the oracle warns of an overflow at a subnormal h before it rejects
        want = outcome(csv_field_by_rows, path, (ValueError, RuntimeWarning))
        got = outcome(field_from_csv, path)
        stricter = rejected_only_here(path)
    if isinstance(got, Field):
        assert not stricter and isinstance(want, Field)
        assert got.grid == want.grid
        assert got.values.tobytes() == want.values.tobytes()
    else:
        assert stricter or not isinstance(want, Field), (got, want)
