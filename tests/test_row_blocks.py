"""The row-block walker, scheme._row_blocks, and the walks it drives.

_fiber_scan(relation, i, count) must return the first count pairs of
label i in row-major order, whatever the row block, and stop drawing
blocks at the one that holds the last of them. The label counts check
each block's range before they count it, so an entry out of range in a
late block is refused with the constructor's message, never handed to
bincount.
"""

import re

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, convolve_functions,
                    convolve_measure_point, cyclic_scheme, fiber,
                    hamming_scheme, kernel_of_scheme, make_quadrature)
from casmat import scheme as scheme_module
from casmat.scheme import _fiber_scan

# rows a block: one, three, and the default
BLOCKS = [1, 3, None]


def late_label_scheme():
    """9 nodes: label 0 on the diagonal, label 2 only at (7, 3), (7, 5)
    and (8, 1), label 1 everywhere else."""
    n = 9
    rel = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(rel, 0)
    for x, y in [(7, 3), (7, 5), (8, 1)]:
        rel[x, y] = 2
    return Scheme(make_quadrature(np.ones(n)),
                  LabelSpace(involution=np.arange(3), identity_label=0), rel)


SCHEMES = {"late label": late_label_scheme,
           "cyclic": lambda: cyclic_scheme(12),
           "hamming": lambda: hamming_scheme(3, 2)}


def set_block(monkeypatch, rows, n):
    if rows is not None:
        monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", rows * n)


def logged_blocks(monkeypatch):
    """The first row of every block the walker yields, as it yields it."""
    starts = []
    own = scheme_module._row_blocks

    def logged(array):
        for a, block in own(array):
            starts.append(a)
            yield a, block
    monkeypatch.setattr(scheme_module, "_row_blocks", logged)
    return starts


@pytest.mark.parametrize("rows", BLOCKS)
@pytest.mark.parametrize("name", SCHEMES)
def test_fiber_scan_gives_the_first_pairs_of_the_fiber(name, rows,
                                                       monkeypatch):
    scheme = SCHEMES[name]()
    rel = scheme.relation
    set_block(monkeypatch, rows, rel.shape[0])
    for i in range(scheme.label_count):
        count = int(scheme.fiber_counts[i])
        whole = fiber(scheme, i)
        for want, oracle in zip(whole, np.nonzero(rel == i)):
            assert np.array_equal(want, oracle)
        for r in sorted({1, min(3, count), count}):
            got = _fiber_scan(rel, i, r)
            for g, w in zip(got, whole):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w[:r]), (i, r)


@pytest.mark.parametrize("name", SCHEMES)
def test_fiber_scan_stops_at_the_block_of_its_last_pair(name, monkeypatch):
    scheme = SCHEMES[name]()
    rel = scheme.relation
    set_block(monkeypatch, 1, rel.shape[0])
    starts = logged_blocks(monkeypatch)
    for i in range(scheme.label_count):
        count = int(scheme.fiber_counts[i])
        for r in sorted({1, min(3, count), count}):
            starts.clear()
            xs, _ = _fiber_scan(rel, i, r)
            assert starts == list(range(xs[-1] + 1)), (i, r)
    # label 2 of the late-label scheme first lies in row 7
    if name == "late label":
        starts.clear()
        assert _fiber_scan(rel, 2, 1)[0].tolist() == [7]
        assert starts == list(range(8))


@pytest.mark.parametrize("name", ["cyclic", "hamming"])
def test_first_pairs_of_a_hypergroup_come_from_the_first_block(name,
                                                               monkeypatch):
    # kernel_of_scheme refuses an empty row fiber, so row 0 holds a pair
    # of every label
    hg = kernel_of_scheme(SCHEMES[name]())
    L = hg.label_count
    set_block(monkeypatch, 1, hg.scheme.space.node_count)
    starts = logged_blocks(monkeypatch)
    convolve_functions(hg, np.ones(L), np.ones(L))
    assert starts == [0] * L
    starts.clear()
    convolve_measure_point(hg, np.ones(L), 1)
    assert starts == [0] * L


@pytest.mark.parametrize("bad", [-2, "L", 10**12])
def test_an_entry_out_of_range_in_a_late_block_is_refused(bad, monkeypatch):
    base = cyclic_scheme(12)
    rel = base.relation.astype(np.int64)
    rel[10, 3] = base.label_count if bad == "L" else bad
    # one row a block: row 10 is counted after ten blocks that pass
    set_block(monkeypatch, 1, 12)
    with pytest.raises(ValueError, match=re.escape(
            "relation entries must lie in 0..label_count-1")):
        Scheme(base.space, base.label_space, rel)
