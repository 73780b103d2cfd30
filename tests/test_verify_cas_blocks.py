"""Row-block scans of the relation against the whole-matrix forms.

verify_cas's CAS1 and CAS3 checks, fiber() and the row masses read the
relation a block of _COUNT_BLOCK_ENTRIES // n rows at a time. The oracles
below are the whole-matrix expressions those scans replace. With the block
size patched down to one or a few rows, every status, witness list and
array must agree exactly, whichever blocks the witnesses fall in.
"""

import tracemalloc

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, circle_scheme, cyclic_scheme, fiber,
                    sphere_scheme, verify_cas)
from casmat import scheme as scheme_module
from casmat.scheme import _row_masses

N = 12
# rows a block: 1, 3 (four blocks) and 5 (5, 5 and 2), then one block
BLOCKS = [1, 3 * N, 5 * N, 1 << 16]


def unblocked_structure(scheme, diagonal_slack):
    """(cas1_ok, cas3_ok, CAS1/CAS3 witnesses) from n x n masks."""
    rel = scheme.relation
    n = rel.shape[0]
    inv = scheme.label_space.involution
    i0 = scheme.label_space.identity_label
    witnesses = {}
    if i0 is None:
        cas1_ok = False
        witnesses["cas1"] = [{"detail": "no identity label declared"}]
    else:
        diag = rel.diagonal()
        bad_diag = np.nonzero(diag != i0)[0]
        off = rel == i0
        off[np.arange(n), np.arange(n)] = False
        off_x, off_y = np.nonzero(off)
        cas1_ok = bad_diag.size == 0 and off_x.size <= diagonal_slack
        if not cas1_ok:
            witnesses["cas1"] = (
                [{"pair": (int(x), int(x)), "label": int(diag[x])}
                 for x in bad_diag[:5]]
                + [{"pair": (int(a), int(b)), "label": i0}
                   for a, b in zip(off_x[:5], off_y[:5])])
    mism_x, mism_y = np.nonzero(inv[rel] != rel.T)
    cas3_ok = mism_x.size == 0
    if not cas3_ok:
        witnesses["cas3"] = [
            {"pair": (int(a), int(b)), "label": int(rel[a, b]),
             "transposed_label": int(rel[b, a])}
            for a, b in zip(mism_x[:5], mism_y[:5])]
    return cas1_ok, cas3_ok, witnesses


def relabelled(base, seed, entries, identity=0):
    """base with entries random off-row-0 entries set to random labels,
    some of them the identity; row 0 keeps every label, so the relation
    stays surjective."""
    rng = np.random.default_rng(seed)
    rel = base.relation.copy()
    n, L = rel.shape[0], base.label_count
    xs = rng.integers(1, n, size=entries)
    ys = rng.integers(0, n, size=entries)
    rel[xs, ys] = rng.integers(0, L, size=entries)
    return Scheme(base.space,
                  LabelSpace(involution=base.label_space.involution,
                             identity_label=identity), rel)


def identity_off_diagonal(base, pairs):
    """base with the identity label at the given off-diagonal pairs and
    at their transposes, so CAS3 still holds."""
    rel = base.relation.copy()
    for x, y in pairs:
        rel[x, y] = rel[y, x] = 0
    return Scheme(base.space, base.label_space, rel)


SCHEMES = {
    # not symmetric: labels d and -d are partners
    "cyclic": lambda: cyclic_scheme(N),
    "symmetric": lambda: circle_scheme(N, 2, signed=False),
    "one relabelled": lambda: relabelled(cyclic_scheme(N), 1, 1),
    "three relabelled": lambda: relabelled(cyclic_scheme(N), 2, 3),
    "many relabelled": lambda: relabelled(cyclic_scheme(N), 3, 40),
    "symmetric relabelled": lambda: relabelled(
        circle_scheme(N, 2, signed=False), 4, 25),
    "no identity": lambda: relabelled(cyclic_scheme(N), 5, 3, None),
    "identity off the diagonal": lambda: identity_off_diagonal(
        cyclic_scheme(N), [(0, 5), (3, 4), (7, 11), (9, 10)]),
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", SCHEMES)
def test_cas1_cas3_match_the_unblocked_scan(name, block, monkeypatch):
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", block)
    scheme = SCHEMES[name]()
    # the identity's off-diagonal pairs: none, some and all forgiven
    for slack in (0, 3, N * N):
        rep = verify_cas(scheme, diagonal_slack=slack)
        got = (rep.cas1_ok, rep.cas3_ok,
               {k: v for k, v in rep.witnesses.items()
                if k in ("cas1", "cas3")})
        assert got == unblocked_structure(scheme, slack)


def test_the_scan_finds_witnesses_in_later_blocks(monkeypatch):
    # one row a block: the first five of "many relabelled" lie in rows
    # beyond the first block
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", 1)
    rep = verify_cas(SCHEMES["many relabelled"]())
    rows = {item["pair"][0] for item in rep.witnesses["cas3"]}
    assert len(rep.witnesses["cas3"]) == 5 and len(rows) > 1


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", SCHEMES)
def test_fiber_matches_nonzero(name, block, monkeypatch):
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", block)
    scheme = SCHEMES[name]()
    for i in range(scheme.label_count):
        for got, want in zip(fiber(scheme, i),
                             np.nonzero(scheme.relation == i)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("block", BLOCKS)
def test_row_masses_match_one_bincount_per_row(block, monkeypatch):
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", block)
    scheme = SCHEMES["many relabelled"]()
    rel, L = scheme.relation, scheme.label_count
    w = np.random.default_rng(7).uniform(0.1, 3.0, size=N)
    want = np.stack([np.bincount(row, weights=w, minlength=L)
                     for row in rel])
    assert _row_masses(rel, w, L).tobytes() == want.tobytes()
    counts = np.stack([np.bincount(row, minlength=L) for row in rel])
    got = _row_masses(rel, None, L)
    assert got.dtype == np.int32 and np.array_equal(got, counts)


def test_sampled_verify_holds_no_n_by_n_temporary():
    n = 3000
    scheme = sphere_scheme(n, 20, seed=5)
    # numpy loads some modules on first use; load them before tracing
    verify_cas(sphere_scheme(40, 20, seed=5), max_pairs_per_fiber=5)
    tracemalloc.start()
    try:
        verify_cas(scheme, max_pairs_per_fiber=5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One n x n temporary in the uint8 relation's dtype is n * n bytes,
    # 9 MB here; a whole-matrix CAS1/CAS3 check holds three at once (its
    # mask, its involution lookup and its comparison). What the call
    # needs besides is per row, per block of rows or per chunk: label
    # counts and row masses, n x 21 entries of 4 and 8 bytes (0.25 and
    # 0.5 MB); a block's keys and weights, 2**16 entries of 8 bytes each
    # (1 MB); a chunk's keys and weights, at most 10 sampled pairs x n
    # entries of 8 bytes each (0.5 MB). Half an n x n temporary is above
    # that sum and below any one such temporary.
    assert peak < n * n // 2
