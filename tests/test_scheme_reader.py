"""The streamed scheme reader against its row loop.

read_scheme reads its file once, as bytes, and parses the relation into
label_dtype from blocks of whole lines near errors._READ_BLOCK_BYTES, one
call of _load_relation_rows a block, and reads a block again with a row
loop, the oracle for messages and line numbers, whenever that parse
refuses it. Every file here must read as it does with the byte parse
switched off, at the reader's own block size and at blocks of 1, 2, 7
and 64 bytes. Warnings are errors in this module, so no numpy warning can
reach stderr.
"""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat import ParseError, cyclic_scheme, read_scheme, sphere_scheme
from casmat import errors
from casmat import scheme as scheme_module
from test_scheme import (RELATION_FAULTS, _cyclic5_lines, _read_lines,
                         _row_loop_read)

pytestmark = pytest.mark.filterwarnings("error")

LINES, START = _cyclic5_lines()
CLEAN = "\n".join(LINES)
CYCLIC5 = ("ok", np.dtype(np.uint8), cyclic_scheme(5).relation.tolist())


# the reader's block sizes in bytes, patched; None keeps its own
BLOCK_BYTES = [None, 1, 2, 7, 64]


def read_bytes(data: bytes, sizes=BLOCK_BYTES):
    """read_scheme of the bytes: ("ok", dtype, relation) or (error, text,
    line), the same at every block size of sizes."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.scheme"
        path.write_bytes(data)
        got = []
        for size in sizes:
            with mock.patch.object(errors, "_READ_BLOCK_BYTES",
                                   size or errors._READ_BLOCK_BYTES):
                try:
                    s = read_scheme(path)
                    got.append(("ok", s.relation.dtype, s.relation.tolist()))
                except ParseError as exc:
                    got.append(("ParseError", str(exc), exc.line))
    assert all(g == got[0] for g in got), (data, got)
    return got[0]


def row_loop_bytes(data: bytes, sizes=BLOCK_BYTES):
    with mock.patch.object(scheme_module, "_load_relation_rows",
                           return_value=None):
        return read_bytes(data, sizes)


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
    "crlf endings, no final line break": CLEAN.rstrip("\n").replace(
        "\n", "\r\n"),
    "tabs and crlf": (CLEAN[:CLEAN.index("relation")] + CLEAN[
        CLEAN.index("relation"):].replace(" ", "\t")).replace("\n", "\r\n"),
    "blank lines between every row": CLEAN.replace("\n", "\n\n"),
    "crlf blank lines in the block": relation_row(2, "", "\r\n \r\n"),
    "text after the last row, no final line break": CLEAN.rstrip("\n")
    + "\n0 1 2 3 4 5\nx",
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


# cyclic(5)'s 17 lines cut short: (lines kept, blank lines after them,
# the line named, the message)
CUTS = {
    "in the weights": (3, 0, 4, "expected 5 weights, got 0"),
    "in the label table": (5, 0, 6, "label table ended early"),
    "in the relation": (16, 0, 17, "relation matrix ended early at row 4"),
    "before two blank lines": (16, 2, 19,
                               "relation matrix ended early at row 4"),
}


@pytest.mark.parametrize("name", CUTS)
def test_an_error_at_the_end_names_the_line_after_the_last(name):
    keep, blanks, line, message = CUTS[name]
    text = "\n".join(LINES[:keep]) + "\n" * (1 + blanks)
    assert line == len(text.splitlines()) + 1
    assert read_bytes(text.encode()) == (
        "ParseError", f"line {line}: {message}", line)


@pytest.mark.parametrize("token", ["nan", "inf", "0", "-1"])
def test_a_bad_weight_is_refused_at_its_line(token):
    lines = list(LINES)
    at = lines.index("weights") + 1
    fields = lines[at].split()
    fields[1] = token
    lines[at] = " ".join(fields)
    assert read_bytes("\n".join(lines).encode()) == (
        "ParseError", f"line {at + 1}: weight must be finite and strictly "
                      f"positive, got {token!r}", at + 1)


def header_edit(at, *new, cut=False):
    """cyclic(5)'s file with line at + 1 replaced by the new lines, and
    with the lines after it dropped when cut."""
    rest = [""] if cut else LINES[at + 1:]
    return "\n".join(LINES[:at] + list(new) + rest)


def records(*new):
    """cyclic(5)'s file with its five label records (lines 6-10) replaced
    by the new ones, in file order."""
    return "\n".join(LINES[:5] + list(new) + LINES[10:])


# cyclic(5)'s header with one fault: (text, message, line)
HEADER_FAULTS = {
    "no nodes line": (header_edit(1, "points 5"),
                      "expected 'nodes <count>'", 2),
    "no weights line": (header_edit(2, "weight"),
                        "expected 'weights' section", 3),
    "six weights": (header_edit(3, " ".join(["1.0"] * 6)),
                    "expected exactly 5 weights, got 6", 4),
    "no labels line": (header_edit(4, "label 5"),
                       "expected 'labels <count>'", 5),
    "label count five": (header_edit(4, "labels five"),
                         "malformed label count", 5),
    "label record of 3 fields": (header_edit(6, "1 4 0.5"),
                                 "label record needs 2 or 4 fields, got 3",
                                 7),
    "label partner x": (header_edit(6, "1 x"), "malformed label ids", 7),
    "label id 5": (header_edit(6, "5 4"), "label id 5 out of range", 7),
    "bin interval end x": (header_edit(6, "1 4 0.0 x"),
                           "malformed bin interval", 7),
    "no identity line": (header_edit(10, "ident 0"),
                         "expected 'identity <id|none>'", 11),
    "identity x": (header_edit(10, "identity x"),
                   "malformed identity label", 11),
    "binfamily x": (header_edit(11, "binfamily x", "relation"),
                    "malformed binfamily count", 12),
    "binfamily cut short": (header_edit(11, "binfamily 2", "0 1", cut=True),
                            "binfamily ended early", 14),
    "binfamily record x": (header_edit(11, "binfamily 1", "0 x", "relation"),
                           "malformed binfamily record", 13),
    "nodes 0": (header_edit(1, "nodes 0"),
                "node count must be at least 1, got 0", 2),
    "nodes -1": (header_edit(1, "nodes -1"),
                 "node count must be at least 1, got -1", 2),
    "labels 0": (header_edit(4, "labels 0"),
                 "label count must be at least 1, got 0", 5),
    "labels -1": (header_edit(4, "labels -1"),
                  "label count must be at least 1, got -1", 5),
    "binfamily -1": (header_edit(11, "binfamily -1", "relation"),
                     "binfamily count must not be negative, got -1", 12),
    # the label table's own faults, and the identity and bin labels that
    # refer to it, each at the line that holds it
    "partner 9": (header_edit(6, "1 9"),
                  "involution entries must be valid label ids", 7),
    "partner -1": (header_edit(8, "3 -1"),
                   "involution entries must be valid label ids", 9),
    "identity 7": (header_edit(10, "identity 7"),
                   "identity label 7 out of range", 11),
    "identity -1": (header_edit(10, "identity -1"),
                    "identity label -1 out of range", 11),
    "identity not fixed": (header_edit(10, "identity 1"),
                           "involution must fix the identity label", 11),
    # 3 -> 3 leaves label 2 unpaired, and label 2's record comes first
    "not involutive": (header_edit(8, "3 3"),
                       "involution table must be an involutive bijection",
                       8),
    # labels 2 and 3 are unpaired: the record of 3 is the first in the
    # file, though label 2 is the smaller id
    "not involutive, records shuffled": (
        records("0 0", "1 4", "3 2", "2 4", "4 1"),
        "involution table must be an involutive bijection", 8),
    "empty bin interval": (header_edit(6, "1 4 0.5 0.5"),
                           "bin interval [0.5, 0.5) is empty", 7),
    "overlapping bin intervals": (
        records("0 0", "1 4 0.0 1.0", "2 3 0.5 2.0", "3 2", "4 1"),
        "bin intervals must be pairwise disjoint", 8),
    # the third interval falls between the first two and meets the first
    "overlap with an earlier neighbour": (
        records("0 0", "1 4 0.0 1.0", "2 3 2.0 3.0", "3 2 0.5 0.7", "4 1"),
        "bin intervals must be pairwise disjoint", 9),
    # the second interval falls before the first and reaches into it
    "overlap with a later neighbour": (
        records("0 0", "1 4 2.0 3.0", "2 3 0.5 2.5", "3 2", "4 1"),
        "bin intervals must be pairwise disjoint", 8),
    "touching bin intervals are disjoint, then equal ones overlap": (
        records("0 0", "1 4 0.0 1.0", "2 3 1.0 2.0", "3 2 1.0 2.0", "4 1"),
        "bin intervals must be pairwise disjoint", 9),
    "bin label 5": (header_edit(11, "binfamily 2", "0 1", "2 5", "relation"),
                    "borel bin label 5 out of range", 14),
    "bin label -1": (header_edit(11, "binfamily 1", "-1 0", "relation"),
                     "borel bin label -1 out of range", 13),
}


@pytest.mark.parametrize("name", HEADER_FAULTS)
def test_a_header_fault_is_refused_at_its_line(name):
    text, message, line = HEADER_FAULTS[name]
    assert read_bytes(text.encode()) == (
        "ParseError", f"line {line}: {message}", line)


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
    # (lines, refused) of each block handed to the byte parse
    blocks = []
    own = scheme_module._load_relation_rows

    def counted(data, n, L):
        rows = own(data, n, L)
        blocks.append((data.count(b"\n"), rows is None))
        return rows
    with mock.patch.object(scheme_module, "_load_relation_rows", counted):
        with pytest.raises(ParseError) as exc:
            read_scheme(path)
    assert exc.value.line == line
    # the rows handed to the row loop: the last block of several, whose
    # last line is the faulty row
    assert len(blocks) >= 2 and sum(lines for lines, _ in blocks) == 600
    assert [refused for _, refused in blocks] == \
        [False] * (len(blocks) - 1) + [True]
    assert 1 < blocks[-1][0] < 600 // 2


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
