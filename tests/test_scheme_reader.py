"""The streamed scheme reader against its row loop.

read_scheme parses the relation block from its bytes into label_dtype,
_PARSE_BLOCK_ENTRIES entries at a time (_load_relation_rows), and reads
the block again with a row loop, the oracle for messages and line
numbers, whenever that parse refuses it. Every file here must read as it
does with the byte parse switched off. Warnings are errors in this
module, so no numpy warning can reach stderr.
"""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat import ParseError, cyclic_scheme, read_scheme, sphere_scheme
from casmat import scheme as scheme_module
from test_scheme import (RELATION_FAULTS, _cyclic5_lines, _read_lines,
                         _row_loop_read)

pytestmark = pytest.mark.filterwarnings("error")

LINES, START = _cyclic5_lines()
CLEAN = "\n".join(LINES)
CYCLIC5 = ("ok", np.dtype(np.uint8), cyclic_scheme(5).relation.tolist())


def read_bytes(data: bytes):
    """read_scheme of the bytes: ("ok", dtype, relation) or (error, text,
    line)."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.scheme"
        path.write_bytes(data)
        try:
            s = read_scheme(path)
        except ParseError as exc:
            return "ParseError", str(exc), exc.line
    return "ok", s.relation.dtype, s.relation.tolist()


def row_loop_bytes(data: bytes):
    with mock.patch.object(scheme_module, "_load_relation_rows",
                           return_value=None):
        return read_bytes(data)


def relation_row(r, old, new):
    """The clean file with relation row r's first old replaced by new."""
    lines = list(LINES)
    lines[START + r] = lines[START + r].replace(old, new, 1)
    return "\n".join(lines)


@pytest.mark.parametrize("name", RELATION_FAULTS)
def test_relation_faults_read_as_the_row_loop_does(name):
    edit, _ = RELATION_FAULTS[name]
    mutated = LINES[:START] + edit(LINES[START:])
    assert _read_lines(mutated) == _row_loop_read(mutated)


# files that read as cyclic(5) does
SAME_SCHEME = {
    "crlf endings": CLEAN.replace("\n", "\r\n"),
    "cr endings": CLEAN.replace("\n", "\r"),
    "tabs": CLEAN[:CLEAN.index("relation")]
    + CLEAN[CLEAN.index("relation"):].replace(" ", "\t"),
    "missing final newline": CLEAN.rstrip("\n"),
    "final newline": CLEAN.rstrip("\n") + "\n",
    "text after the block": CLEAN.rstrip("\n") + "\nnot a row\n1 2\n",
    "blank line in the block": relation_row(2, "", "\n"),
    "spaces-only line in the block": relation_row(2, "", " \t \n"),
    "leading and trailing blanks": relation_row(1, "", "  ").replace(
        "\n3 4 0 1 2", "\n3 4 0 1 2 \t"),
    "unit separator between entries": relation_row(0, " ", "\x1f"),
    "no-break space between entries": relation_row(0, " ", "\xa0"),
    "ideographic space between entries": relation_row(0, " ", "\u3000"),
    "form feed ends the relation line": CLEAN.replace("relation\n",
                                                      "relation\f"),
    "plus sign and leading zeros": relation_row(0, "1", "+01"),
}
# files whose fault the row loop names, with its line
FAULTY = {
    "form feed splits a row": (relation_row(1, " ", "\f"), 14),
    "vertical tab splits a row": (relation_row(1, " ", "\v"), 14),
    "file separator splits a row": (relation_row(1, " ", "\x1c"), 14),
    "group separator splits a row": (relation_row(1, " ", "\x1d"), 14),
    "record separator splits a row": (relation_row(1, " ", "\x1e"), 14),
    "next line splits a row": (relation_row(1, " ", "\x85"), 14),
    "line separator splits a row": (relation_row(1, " ", "\u2028"), 14),
    "paragraph separator splits a row": (relation_row(1, " ", "\u2029"),
                                         14),
    "nul in an entry": (relation_row(0, "1", "1\x00"), 13),
    "negative entry": (relation_row(0, "1", "-1"), 13),
    "entry beyond uint8": (relation_row(0, "1", "300"), 13),
    "entry that wraps to 0 in uint8": (relation_row(0, "1", "256"), 13),
    "entry beyond int64": (relation_row(0, "1", "1" * 30), 13),
    "float entry": (relation_row(0, "1", "1.0"), 13),
    "row short at the end of the file": (CLEAN.rstrip("\n")[:-2], 17),
}


@pytest.mark.parametrize("name", SAME_SCHEME)
def test_benign_layouts_read_as_the_clean_file(name):
    data = SAME_SCHEME[name].encode()
    assert read_bytes(data) == row_loop_bytes(data) == CYCLIC5


@pytest.mark.parametrize("name", FAULTY)
def test_faults_name_the_row_loop_line(name):
    text, line = FAULTY[name]
    got = read_bytes(text.encode())
    assert got == row_loop_bytes(text.encode())
    assert got[0] == "ParseError" and got[2] == line
    # numbered as the lines of str.splitlines() of the whole text
    if line is not None:
        assert text.splitlines()[line - 1].strip()


CHARACTERS = st.sampled_from(
    list("0123456789 -+_.#x\t\n\r\v\f\x1c\x1d\x1e\x1f\x00")
    + ["\x85", "\xa0", "\u2028", "\u3000", "\r\n", "\n\n", "255", "256"])


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.booleans(),
                          st.lists(CHARACTERS, max_size=3).map("".join)),
                max_size=4))
def test_mutated_relation_blocks_read_as_the_row_loop_does(edits):
    # edits land in the relation block only: the counts in the header
    # size what the reader allocates
    head, block = CLEAN[:CLEAN.index("relation")], CLEAN[
        CLEAN.index("relation"):]
    for pos, replace, text in edits:
        pos = len("relation") + pos % (len(block) - len("relation") + 1)
        block = block[:pos] + text + block[pos + replace:]
    data = (head + block).encode()
    got = read_bytes(data)
    assert got[0] in ("ok", "ParseError")
    assert got == row_loop_bytes(data)


def test_read_scheme_holds_no_copy_of_the_text(tmp_path):
    path = tmp_path / "s600.scheme"
    scheme_module.write_scheme(sphere_scheme(600, 20), path)
    tracemalloc.start()
    try:
        scheme = read_scheme(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rel = scheme.relation
    assert peak < rel.nbytes + 4 * 10**6
    # less than one copy of the file's text beside the relation
    assert peak < rel.nbytes + path.stat().st_size
    assert rel.dtype == np.uint8


def faulty_sphere600(tmp_path, token):
    """sphere(600,20) written with the last entry of its last relation row
    replaced by token: (path, the line of that row)."""
    path = tmp_path / "s600.scheme"
    scheme_module.write_scheme(sphere_scheme(600, 20), path)
    lines = path.read_text().split("\n")
    last = lines.index("relation") + 600
    lines[last] = lines[last].rsplit(" ", 1)[0] + " " + token
    path.write_text("\n".join(lines))
    return path, last + 1


@pytest.mark.parametrize("token", ["300", "x", "21"])
def test_a_fault_in_the_last_row_rereads_only_its_block(tmp_path, token):
    path, line = faulty_sphere600(tmp_path, token)
    refused = []
    own = scheme_module._load_relation_rows

    def counted(texts, n, L):
        rows = own(texts, n, L)
        if rows is None:
            refused.append(len(texts))
        return rows
    with mock.patch.object(scheme_module, "_load_relation_rows", counted):
        with pytest.raises(ParseError) as exc:
            read_scheme(path)
    assert exc.value.line == line
    # the rows handed to the row loop: the last block of several
    step = scheme_module._COUNT_BLOCK_ENTRIES // 600
    assert 600 // step >= 2 and refused == [600 % step]


def test_a_faulty_file_is_refused_without_a_wide_copy(tmp_path):
    path, line = faulty_sphere600(tmp_path, "x")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"line {line}: malformed"):
            read_scheme(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the uint8 relation and a block of row texts, far from 8 * n * n
    assert peak < 600 * 600 + 10**6
