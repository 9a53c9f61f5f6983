"""The two input-file readers, ``physio_io.parse_rpeaks`` and
``formats.read_uniform_csv``, and the one CSV reader under both,
``formats.read_csv_rows``: their row rules, and a property that any bytes
either read or are refused with a ValueError that says where."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nyqmirror.formats import read_csv_rows, read_uniform_csv, write_uniform_csv
from nyqmirror.physio_io import parse_rpeaks
from nyqmirror.spline_interp import UniformSignal

# what a refusal names: a file row, a decoding offset, the header or a
# metadata key
_NAMED = re.compile(r"row \d+|position \d+|header|rate_hz|t_start_s")


def uniform(tmp_path, text: str) -> UniformSignal:
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return read_uniform_csv(path)


def test_csv_rows_keep_metadata_header_rows_and_file_lines():
    meta, table, lines = read_csv_rows(
        "# a = 1\r\n\r\n# b=x=y\r\ntime_s , value\r\n0,1\r\n \t\r\n0.5,-2e3\r\n", ("time_s,value",))
    assert meta == {"a": "1", "b": "x=y"}
    assert table.tolist() == [[0.0, 1.0], [0.5, -2000.0]] and lines.tolist() == [5, 7]


@pytest.mark.parametrize("text, message", [
    ("", "empty file: no header 'time_s,value'"),
    ("# rate_hz=4\n\n", "empty file"),
    ("time,value\n0,1\n", "header must be 'time_s,value', got time,value"),
    ('"time_s,value"\n0,1\n', "header must be"),
    ("# rate_hz=4\n# rate_hz=8\ntime_s,value\n", "row 2: metadata key 'rate_hz' given twice"),
    ("# a note\ntime_s,value\n", "row 1: metadata line is not '# key=value'"),
    ("# =4\ntime_s,value\n", "row 1: metadata line is not '# key=value'"),
    ("time_s,value\n0,1\n# rate_hz=4\n", "row 3: expected 2 fields"),
    ("time_s,value\n0,1\n#,4\n", "row 3: non-numeric value"),
    ("time_s,value\n\n0,1,2\n", "row 3: expected 2 fields"),
    ("time_s,value\n0\n", "row 2: expected 2 fields"),
    ("time_s,value\r0,1\r0.5,inf\r", "row 3: non-finite value"),
    ("time_s,value\n0,1\n0.5,\x001\n", "row 3: non-numeric value"),
    ("time_s,value\n0,1\n,\n0.5,2\n", "row 3: non-numeric value"),
    ("time_s,value\n0,1\n \n", "header 'time_s,value' is followed by fewer than 2 rows"),
    ("time_s,value\n", "header 'time_s,value' is followed by fewer than 2 rows"),
], ids=["empty", "metadata_only", "bad_header", "quoted_header", "key_twice", "no_equals",
        "empty_key", "metadata_after_header", "comment_row", "three_fields", "one_field",
        "cr_line_ends", "nul", "empty_fields", "one_row", "no_row"])
def test_csv_rows_refuse_by_row(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv_rows(text, ("time_s,value",))


@pytest.mark.parametrize("body, message", [
    ("0,1.0\n0.25,0.5,7\n", "row 5: expected 2 fields"),
    ("0,1.0\nabc,2\n", "row 5: non-numeric value"),
    ("0,1.0\ntime_s,value\n0.25,0.5\n", "row 5: non-numeric value"),
    ("0,1.0\n0.25,nan\n", "row 5: non-finite value"),
    ("0,1.0\n,\n", "row 5: non-numeric value"),
], ids=["three_fields", "text_time", "repeated_header", "nan_value", "empty_fields"])
def test_uniform_csv_reads_every_field_of_every_row(tmp_path, body, message):
    # the reader used to take the last field of each row: a 3-field row and
    # a text time passed, a repeated header line was skipped, and a NaN
    # value was refused without its row; a row of empty fields is no blank
    # line, since dropping it would move every later sample one grid step
    head = "# rate_hz=4\n# t_start_s=0\ntime_s,value\n"
    with pytest.raises(ValueError, match=f"input.csv: {message}"):
        uniform(tmp_path, head + body + "0.5,0.25\n")


def test_uniform_csv_refuses_a_rate_given_twice(tmp_path):
    # the last of two rate_hz lines used to win
    with pytest.raises(ValueError, match="row 2: metadata key 'rate_hz' given twice"):
        uniform(tmp_path, "# rate_hz=4\n# rate_hz=8\ntime_s,value\n0,1\n0.25,2\n")


def test_uniform_csv_names_a_refused_rate(tmp_path):
    with pytest.raises(ValueError, match="rate_hz=-4: rate must be positive"):
        uniform(tmp_path, "# rate_hz=-4\ntime_s,value\n0,1\n0.25,2\n")
    # a grid refused as a whole names both metadata lines that set it
    with pytest.raises(ValueError, match=re.escape("rate (rate_hz=1e-310, t_start_s=0)")):
        uniform(tmp_path, "# rate_hz=1e-310\ntime_s,value\n0,1\n0.25,2\n")


def test_rpeak_file_may_start_with_metadata_lines():
    rec = parse_rpeaks(b"# source=holter\r\n# lead=II\r\ntime_s\r\n0.5\r\n1.25\r\n")
    assert rec.times.tolist() == [0.5, 1.25]
    with pytest.raises(ValueError, match="row 4: non-numeric value"):
        parse_rpeaks(b"time_s\n0.5\n1.25\n# lead=II\n")


def _valid_rpeaks(data) -> bytes:
    times = np.cumsum(data.draw(st.lists(st.floats(0.3, 2.0), min_size=2, max_size=8))).tolist()
    if data.draw(st.booleans()):
        amps = data.draw(st.lists(st.floats(-10, 10), min_size=len(times),
                                  max_size=len(times)))
        rows = [f"{t!r},{a!r}" for t, a in zip(times, amps)]
        return "\n".join(["time_s,amplitude", *rows, ""]).encode()
    return "\n".join(["time_s", *map(repr, times), ""]).encode()


def _valid_uniform(data) -> bytes:
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8))
    fh = io.BytesIO()
    write_uniform_csv(fh, UniformSignal(values, data.draw(st.sampled_from([0.5, 4.0, 64.0])),
                                        data.draw(st.sampled_from([0.0, -3.5, 1e3]))),
                      {"method": "x"})
    return fh.getvalue()


def _mutated(data, valid: bytes) -> bytes:
    """``valid`` with one mutation, or arbitrary bytes."""
    lines = valid.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i].rstrip(b"\r\n")
    end = lines[i][len(line):]
    fields = line.split(b",")
    how = data.draw(st.sampled_from(["drop_field", "add_field", "text", "nan", "inf",
                                     "repeat", "move", "bom", "bom_inside", "crlf",
                                     "arbitrary"]))
    if how == "arbitrary":
        return data.draw(st.binary(max_size=200))
    if how in ("drop_field", "add_field"):
        fields = fields[:-1] if how == "drop_field" else [*fields, b"1"]
    elif how in ("text", "nan", "inf"):
        k = data.draw(st.integers(0, len(fields) - 1))
        fields[k] = {"text": b"abc", "nan": b"nan", "inf": b"-inf"}[how]
    if how in ("drop_field", "add_field", "text", "nan", "inf"):
        lines[i] = b",".join(fields) + end
    elif how == "repeat":
        lines.insert(j, lines[i])
    elif how == "move":
        lines.insert(j, lines.pop(i))
    elif how == "bom_inside":
        lines[i] = b"\xef\xbb\xbf" + lines[i]
    joined = b"".join(lines)
    if how == "bom":
        return b"\xef\xbb\xbf" + joined
    return joined.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n") if how == "crlf" else joined


def _read_or_refuse(read, raw: bytes):
    try:
        return read(raw)
    except ValueError as exc:  # a decoding error included
        assert _NAMED.search(str(exc)), str(exc)
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rpeak_reader_reads_or_names_the_row(data):
    # about 0.6 s: any other exception, or a refusal that does not say
    # where, fails; a BOM or CRLF line ends leave the record as it was
    valid = _valid_rpeaks(data)
    want = parse_rpeaks(valid)
    raw = _mutated(data, valid)
    got = _read_or_refuse(parse_rpeaks, raw)
    if raw in (b"\xef\xbb\xbf" + valid, valid.replace(b"\n", b"\r\n")):
        assert got.times.tolist() == want.times.tolist()
        assert (got.amplitudes is None) == (want.amplitudes is None)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_uniform_reader_reads_or_names_the_row(tmp_path_factory, data):
    # about 1 s (a file write per read), as the R-peak property: the reader's file is written
    # as these bytes
    path = tmp_path_factory.getbasetemp() / "property.csv"

    def read(raw: bytes):
        path.write_bytes(raw)
        return read_uniform_csv(path)

    valid = _valid_uniform(data)
    want = read(valid)
    raw = _mutated(data, valid)
    got = _read_or_refuse(read, raw)
    if raw in (b"\xef\xbb\xbf" + valid, valid.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")):
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.rate, got.t_start) == (want.rate, want.t_start)
