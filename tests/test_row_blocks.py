"""The row-block walker, scheme._row_blocks, and the walks it drives.

_fiber_scan(relation, i, count) must return the first count pairs of
label i in row-major order, whatever the row block, and stop drawing
blocks at the one that holds the last of them. The label counts check
each block's range before they count it, so an entry out of range in a
late block is refused with the constructor's message, never handed to
bincount. verify_cas scans row blocks for CAS3 only once its tiles
fail, and stops at the block of its fifth mismatch; CAS1 reads no block
unless the identity lies off the diagonal, and an empty fiber sample is
refused before any block.
"""

import re

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, convolve_functions,
                    convolve_measure_point, cyclic_scheme, fiber,
                    hamming_scheme, intersection_number, kernel_of_scheme,
                    make_quadrature, verify_cas)
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


class _Structural(Exception):
    """Raised where verify_cas leaves CAS1 and CAS3 for the family."""


def structural_blocks(monkeypatch, scheme):
    """The first rows of the blocks verify_cas draws for CAS1 and CAS3,
    one row a block."""
    set_block(monkeypatch, 1, scheme.space.node_count)
    starts = logged_blocks(monkeypatch)

    def stop(*args):
        raise _Structural
    monkeypatch.setattr(scheme_module, "resolve_borel_family", stop)
    with pytest.raises(_Structural):
        verify_cas(scheme)
    return starts


def test_cas3_scan_stops_at_the_block_of_its_fifth_mismatch(monkeypatch):
    base = cyclic_scheme(12)
    rel = base.relation.copy()
    # each entry and its transpose mismatch: the fifth of the ten, in
    # row-major order, is (4, 0)
    for x, y in [(1, 3), (2, 5), (4, 0), (8, 9), (10, 11)]:
        rel[x, y] = (rel[x, y] + 1) % 12
    scheme = Scheme(base.space, base.label_space, rel)
    bad = np.nonzero(scheme.label_space.involution[rel] != rel.T)
    assert bad[0].size == 10 and bad[0][4] == 4
    assert structural_blocks(monkeypatch, scheme) == list(range(5))


def test_cas1_scans_only_for_identity_pairs_off_the_diagonal(monkeypatch):
    # (2, 2) takes label 6, its own partner, so CAS3 holds on its tiles
    # and scans no block; CAS1 fails on the diagonal alone and reads none
    base = cyclic_scheme(12)
    rel = base.relation.copy()
    rel[2, 2] = 6
    scheme = Scheme(base.space, base.label_space, rel)
    rep = verify_cas(scheme)
    assert rep.cas3_ok and rep.witnesses["cas1"] == [
        {"pair": (2, 2), "label": 6}]
    assert structural_blocks(monkeypatch, scheme) == []


@pytest.mark.parametrize("call", [
    lambda s: verify_cas(s, max_pairs_per_fiber=0),
    lambda s: intersection_number(s, (1,), (1,), 1, max_pairs=0)])
def test_an_empty_sample_is_refused_before_any_block(call, monkeypatch):
    scheme = cyclic_scheme(12)
    starts = logged_blocks(monkeypatch)
    with pytest.raises(ValueError, match="at least 1 pair, got 0"):
        call(scheme)
    assert starts == []
