"""The byte parse of relation rows against the row loop.

read_scheme parses each block of relation rows from its bytes
(scheme._load_relation_rows) and hands a block that parse refuses to the
row loop, the oracle. Every file here must read as it does with the byte
parse switched off, and the files write_scheme writes must never reach
the row loop. The reader also counts the labels of each block it holds;
those counts must be the ones Scheme(...) counts for itself.
"""

import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casmat import (LabelSpace, Scheme, SurjectivityError,
                    circle_scheme, cyclic_scheme, delsarte_scheme,
                    group_action_scheme, hamming_scheme, make_quadrature,
                    read_scheme, sphere_scheme, symmetric_group, write_scheme)
from casmat import scheme as scheme_module
from test_scheme_reader import read_bytes, row_loop_bytes

pytestmark = pytest.mark.filterwarnings("error")

# label counts at the decimal digit and dtype edges, each with a node
# count whose relation can cover every label
NODES = {1: 3, 10: 4, 11: 4, 100: 10, 101: 11, 256: 16, 257: 17, 1001: 32,
         65537: 257}


@functools.lru_cache(maxsize=None)
def clean_file(L):
    """A surjective scheme file with L labels: (head text, relation rows)."""
    n = NODES[L]
    rel = np.arange(n * n).reshape(n, n) % L
    scheme = Scheme(make_quadrature(np.ones(n)),
                    LabelSpace(involution=np.arange(L)), rel)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.scheme"
        write_scheme(scheme, path)
        text = path.read_text()
    head, _, block = text.partition("\nrelation\n")
    return head + "\nrelation\n", tuple(block.splitlines())


# {L} and {L-1} stand for the label count and the largest label
TOKENS = st.one_of(
    st.sampled_from(["0", "{L-1}", "{L}", "0{L-1}", "00", "01", "+2", "0_1",
                     "-0", "99999999999", "١", "٣٠",
                     "１", "1\t", "\t\t0", "0  0", "", "1.0", "x"]),
    st.text(alphabet="0123456789 \t+_", max_size=4))

# (row, entry, token): entry `entry` of row `row` replaced by the token;
# with token None, that entry moves to the end of the next row instead
EDITS = st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 10**6),
                           st.one_of(st.none(), TOKENS)), max_size=3)

# rows per block and per parsed sub-block, patched: None keeps the module's
# sizes; (5, 2) gives sub-blocks that do not divide their block
BLOCKS = st.sampled_from([None, (None, 1), (5, 1), (5, 2), (4, 3)])


def edited(L, edits, separator):
    head, rows = clean_file(L)
    rows = [row.split(" ") for row in rows]
    for r, e, token in edits:
        r %= len(rows)
        row = rows[r]
        if not row:
            continue
        e %= len(row)
        if token is None:
            rows[(r + 1) % len(rows)].append(row.pop(e))
        else:
            row[e] = token.replace("{L-1}", str(L - 1)).replace("{L}", str(L))
    body = "\n".join(separator.join(row) for row in rows)
    return (head + body + "\n").encode()


def block_sizes(blocks, n):
    """The reader's block sizes, in entries, for rows per block and per
    sub-block: None keeps the module's own."""
    block, sub = blocks or (None, None)
    return {"_COUNT_BLOCK_ENTRIES": block * n if block
            else scheme_module._COUNT_BLOCK_ENTRIES,
            "_PARSE_BLOCK_ENTRIES": sub * n if sub
            else scheme_module._PARSE_BLOCK_ENTRIES}


@settings(deadline=None, max_examples=250)
@given(st.sampled_from(sorted(NODES)), EDITS,
       st.sampled_from([" ", "\t", "  ", " \t"]), BLOCKS)
@example(1, [], " ", None)
@example(65537, [], " ", (5, 2))
@example(11, [(0, 1, "{L}")], " ", None)
@example(257, [(3, 2, "{L}")], " ", (5, 2))
@example(10, [(0, 1, "99999999999")], " ", None)
@example(100, [(0, 1, "0{L-1}")], " ", None)
@example(10, [(0, 2, "01")], " ", None)
@example(101, [(1, 1, "+2")], " ", (None, 1))
@example(11, [(1, 1, "0_1")], " ", None)
@example(11, [(1, 1, "٣")], " ", None)
@example(1001, [(2, 0, None)], " ", (5, 2))
@example(101, [(0, 3, "{L-1}"), (2, 5, "10")], "\t", (4, 3))
def test_byte_parse_reads_as_the_row_loop(L, edits, separator, blocks):
    data = edited(L, edits, separator)
    with mock.patch.multiple(scheme_module, **block_sizes(blocks, NODES[L])):
        got = read_bytes(data)
        assert got == row_loop_bytes(data)
    if not edits:
        # a clean file reads whole, in the narrowest dtype
        n = NODES[L]
        assert got == ("ok", scheme_module.label_dtype(L),
                       (np.arange(n * n).reshape(n, n) % L).tolist())


def fast_path_only():
    """Patch _load_relation_rows so that a refused block fails the test."""
    own = scheme_module._load_relation_rows

    def checked(texts, n, L):
        rows = own(texts, n, L)
        assert rows is not None, "a block went to the row loop"
        return rows
    return mock.patch.object(scheme_module, "_load_relation_rows", checked)


@pytest.mark.parametrize("build, separator", [
    (lambda: sphere_scheme(600, 20), " "),
    (lambda: sphere_scheme(600, 20), "\t"),
    (lambda: circle_scheme(240, 60), " "),
    (lambda: circle_scheme(120, 30, signed=False), " "),
    (lambda: cyclic_scheme(300), " "),
], ids=["sphere", "sphere-tabs", "circle", "circle-unsigned", "cyclic300"])
def test_written_files_take_the_byte_parse(tmp_path, build, separator):
    scheme = build()
    path = tmp_path / "s.scheme"
    write_scheme(scheme, path)
    if separator != " ":
        head, _, block = path.read_bytes().partition(b"\nrelation\n")
        path.write_bytes(head + b"\nrelation\n"
                         + block.replace(b" ", separator.encode()))
    with fast_path_only():
        got = read_scheme(path)
    assert got.relation.dtype == scheme.relation.dtype
    assert np.array_equal(got.relation, scheme.relation)
    if scheme.label_count > 256:
        assert got.relation.dtype == np.uint16


def _delsarte():
    x = np.linspace(0.0, 1.0, 7)
    return delsarte_scheme(np.abs(x[:, None] - x[None, :]))


CATALOG = {
    "cyclic": lambda: cyclic_scheme(9),
    "cyclic-uint16": lambda: cyclic_scheme(300),
    "hamming": lambda: hamming_scheme(3, 3),
    "group": lambda: group_action_scheme(symmetric_group(4)),
    "circle": lambda: circle_scheme(60, 15),
    "circle-unsigned": lambda: circle_scheme(60, 15, signed=False),
    "sphere": lambda: sphere_scheme(200, 12),
    "delsarte": _delsarte,
}


@pytest.mark.parametrize("kind", CATALOG)
@pytest.mark.parametrize("byte_parse", [True, False])
def test_reader_counts_are_the_schemes_own(tmp_path, monkeypatch, kind,
                                           byte_parse):
    scheme = CATALOG[kind]()
    path = tmp_path / "s.scheme"
    write_scheme(scheme, path)
    handed = []
    own = Scheme._adopt

    def spy(space, label_space, relation, borel_bins=None, counts=None):
        handed.append(counts)
        return own(space, label_space, relation, borel_bins=borel_bins,
                   counts=counts)
    monkeypatch.setattr(Scheme, "_adopt", spy)
    if not byte_parse:
        monkeypatch.setattr(scheme_module, "_load_relation_rows",
                            lambda texts, n, L: None)
    got = read_scheme(path)
    own_count = Scheme(got.space, got.label_space, got.relation).fiber_counts
    assert len(handed) == 1 and handed[0] is not None
    assert handed[0].dtype == own_count.dtype == np.int64
    assert np.array_equal(handed[0], own_count)
    assert np.array_equal(got.fiber_counts, scheme.fiber_counts)


@pytest.mark.parametrize("L", [11, 257])
def test_a_missing_label_is_refused_as_before(L):
    head, rows = clean_file(L)
    # every L - 1 becomes 0, so label L - 1 has an empty fiber
    rows = [" ".join("0" if t == str(L - 1) else t for t in row.split())
            for row in rows]
    data = (head + "\n".join(rows) + "\n").encode()
    with pytest.raises(SurjectivityError) as own:
        Scheme(make_quadrature(np.ones(NODES[L])),
               LabelSpace(involution=np.arange(L)),
               np.array([[int(t) for t in row.split()] for row in rows]))
    want = ("ParseError", f"labels with empty fibers: ({L - 1},)", None)
    assert str(own.value) == want[1]
    assert read_bytes(data) == row_loop_bytes(data) == want
