"""Fuzz tests of the quadrature reader, and the UTF-8 refusal of the
scheme and quadrature readers.

The fuzz test writes a valid quadrature file, mutates it line by line
(fields swapped for awkward tokens, lines replaced, inserted or deleted)
and reads it back. Whatever the mutation, read_quadrature returns a valid
space or raises ParseError; no other exception may escape. The UTF-8 test
puts an invalid byte on one line of a scheme or quadrature file, and the
reader must refuse it at that line.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casmat import (MeasureSpace, ParseError, cyclic_scheme, make_quadrature,
                    read_quadrature, read_scheme, write_quadrature,
                    write_scheme)

TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "-0.0", "nan", "inf", "-inf",
                     "1e999", "x", "", " ", "#", "1_0", "0x1", "=", "a=b=c",
                     "n=", "n=3", "n=x", "n=-1", "count=0", "count=-1",
                     "count=x", "count", "contains_j=false",
                     "closure_tolerance=x", "closure_tolerance=nan",
                     "#casmat-kernel v1 n=3", "#casmat-basis v1 count=1",
                     "#casmat-quadrature v1", "1.0,0.0", ",", "1,2,3"]),
    st.text(alphabet="0123456789 -+_.,=#enix\t", max_size=6))

EDITS = st.lists(
    st.tuples(st.sampled_from(["field", "line", "insert", "delete"]),
              st.integers(0, 40), st.integers(0, 12), TOKENS),
    max_size=3)


def mutate(lines, edits, sep):
    """Apply (kind, line, field, token) edits; indices wrap around."""
    lines = list(lines)
    for kind, i, f, token in edits:
        if kind == "insert":
            lines.insert(i % (len(lines) + 1), token)
            continue
        if not lines:
            continue
        i %= len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "line":
            lines[i] = token
        else:
            fields = re.split(sep, lines[i])
            fields[f % len(fields)] = token
            lines[i] = (" " if sep == r"\s" else ",").join(fields)
    return lines


def read_mutated(reader, lines, *args):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            return reader(path, *args)
        except ParseError:
            return None


def valid_lines(writer, obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "valid.txt"
        writer(obj, path)
        return path.read_text().splitlines()


SPACE = make_quadrature([1.0, 2.0, 0.5],
                        coordinates=np.arange(6.0).reshape(3, 2))
QUADRATURE_LINES = valid_lines(write_quadrature, SPACE)
SCHEME = cyclic_scheme(3)
SCHEME_LINES = valid_lines(write_scheme, SCHEME)


@settings(deadline=None, max_examples=150)
@given(EDITS)
@example([("field", 1, 0, "0")])
@example([("field", 2, 0, "nan")])
def test_read_quadrature_on_mutated_files(edits):
    space = read_mutated(read_quadrature,
                         mutate(QUADRATURE_LINES, edits, r"\s"))
    if space is not None:
        assert isinstance(space, MeasureSpace)
        assert space.node_count >= 1
        assert np.isfinite(space.weights).all()
        assert (space.weights > 0).all()


# (reader, its file's lines, the 0-based line that gets the byte, args)
NON_UTF8 = {
    "scheme header line": (read_scheme, SCHEME_LINES,
                           SCHEME_LINES.index("nodes 3"), ()),
    "scheme relation row": (read_scheme, SCHEME_LINES,
                            SCHEME_LINES.index("relation") + 2, ()),
    "quadrature record": (read_quadrature, QUADRATURE_LINES, 1, ()),
}


@pytest.mark.parametrize("name", NON_UTF8)
@pytest.mark.parametrize("byte", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
def test_non_utf8_byte_is_refused_at_its_line(name, byte):
    reader, lines, at, args = NON_UTF8[name]
    data = [line.encode() for line in lines]
    data[at] = data[at][:1] + byte + data[at][1:]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.txt"
        path.write_bytes(b"\n".join(data) + b"\n")
        with pytest.raises(ParseError) as exc:
            reader(path, *args)
    assert exc.value.line == at + 1
    assert str(exc.value) == (f"line {at + 1}: byte {byte[0]:#04x} is not "
                              f"valid UTF-8")
