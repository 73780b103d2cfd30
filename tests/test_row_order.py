"""verify_cas's n x n walks read the relation in row order.

CAS3 reads square tiles of the walker's block, each unordered pair of
tiles once, and scans row blocks only once a tile fails. Once CAS3 holds,
the CAS2 reductions read column z of the relation as row z through the
involution (_CellScratch's mirror), and a scheme that fails CAS3 never
does. The pushforward deviation is taken a block of row masses at a
time. Each is checked here against the plain read it replaces.
"""

import tracemalloc

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, circle_scheme, cyclic_scheme,
                    verify_cas)
from casmat import scheme as scheme_module
from casmat.catalog import materialize_recipe
from casmat.scheme import _CellScratch, _transpose_holds
from test_joint_table_oracle import random_scheme


def corrupted(base, x, y):
    """base with relation entry (x, y) moved to the next label."""
    rel = base.relation.astype(np.int64)
    rel[x, y] = (rel[x, y] + 1) % base.label_count
    return rel


@pytest.mark.parametrize("base", [cyclic_scheme(13),
                                  circle_scheme(13, 13, signed=False)],
                         ids=["cyclic13", "circle13-unsigned"])
def test_tiles_find_every_single_mismatch(base, monkeypatch):
    # tiles of 3 x 3 over 13 nodes: the last row and column of tiles hold
    # one node each
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", 9)
    inv = base.label_space.involution
    symmetric = base.label_space.is_symmetric()
    inv_rel = inv.astype(base.relation.dtype)
    assert _transpose_holds(base.relation, inv_rel, symmetric)
    n = base.space.node_count
    faults = 0
    for x in range(n):
        for y in range(n):
            rel = corrupted(base, x, y)
            want = bool((inv[rel] == rel.T).all())
            faults += not want
            assert _transpose_holds(rel.astype(inv_rel.dtype), inv_rel,
                                    symmetric) == want, (x, y)
    # every entry off the diagonal, and on it where inv is no identity
    assert faults == n * n - (n if symmetric else 0)


def switched_off(monkeypatch):
    """Make every _CellScratch read columns, whatever verify_cas asks."""
    class Columns(_CellScratch):
        def __init__(self, K, n, mirror=None):
            super().__init__(K, n)
    monkeypatch.setattr(scheme_module, "_CellScratch", Columns)


def mirrored_calls(monkeypatch):
    """The mirrored flag of every _cell_keys call, as it is made."""
    calls = []
    own = scheme_module._cell_keys

    def spy(relation, xs, zs, K, left, right, mirrored=False):
        calls.append(mirrored)
        return own(relation, xs, zs, K, left, right, mirrored)
    monkeypatch.setattr(scheme_module, "_cell_keys", spy)
    return calls


def symmetric_scheme(corrupt):
    base = circle_scheme(16, 4, signed=False)
    if not corrupt:
        return base
    return Scheme(base.space, base.label_space, corrupted(base, 3, 11))


SCHEMES = [pytest.param(lambda c=corrupt, s=seed, w=weights, N=N:
                        random_scheme(s, w, c, N)[0], corrupt,
                        id=f"random-{seed}-{weights}-{corrupt}-n{N}")
           for seed in range(3) for weights in (True, False)
           for corrupt in (False, True) for N in (7, 20)]
SCHEMES += [pytest.param(lambda c=corrupt: symmetric_scheme(c), corrupt,
                         id=f"circle16-unsigned-{corrupt}")
            for corrupt in (False, True)]


@pytest.mark.parametrize("family", [None, "split"])
@pytest.mark.parametrize("max_pairs", [None, 3])
@pytest.mark.parametrize("build, corrupt", SCHEMES)
def test_mirrored_read_gives_the_column_reports(build, corrupt, max_pairs,
                                                family, monkeypatch):
    scheme = build()
    L = scheme.label_count
    # disjoint sets, so the mapped reduction reads mirrored rows too
    sets = None if family is None else [tuple(range(0, L, 2)),
                                        tuple(range(1, L, 2))]
    calls = mirrored_calls(monkeypatch)
    reports = {}
    for seed in (0, 1):
        rep = verify_cas(scheme, borel_family=sets, tolerance=1e-12,
                         max_pairs_per_fiber=max_pairs, seed=seed)
        reports[seed] = rep.as_dict()
    assert rep.cas3_ok is not corrupt
    # a scheme that fails CAS3 never reads mirrored rows; one that holds
    # it always does
    assert calls and set(calls) == {not corrupt}
    switched_off(monkeypatch)
    calls.clear()
    for seed in (0, 1):
        rep = verify_cas(scheme, borel_family=sets, tolerance=1e-12,
                         max_pairs_per_fiber=max_pairs, seed=seed)
        assert rep.as_dict() == reports[seed]
    assert set(calls) == {False}


def test_pushforward_holds_no_further_row_mass_array():
    # signed circle(1000,10) has L = n = 1000 labels: the float (n, L)
    # row masses are 8 MB, and a report that held two more of them, as
    # one whole-array deviation does, would pass 16 MB
    scheme, _ = materialize_recipe("circle nodes=1000 bins=10")
    n, L = scheme.space.node_count, scheme.label_count
    assert n == L == 1000
    # numpy loads some modules on first use; load them before tracing
    verify_cas(materialize_recipe("circle nodes=40 bins=10")[0])
    tracemalloc.start()
    try:
        rep = verify_cas(scheme, tolerance=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed()
    assert peak < 2 * 8 * n * L


def test_pushforward_by_blocks_matches_the_whole_array(monkeypatch):
    scheme, _, _ = random_scheme(3, False, False, 20)
    w = scheme.space.weights
    rowmass = scheme_module.row_masses(scheme)
    want = float(np.abs(rowmass * scheme.space.total_mass
                        - w @ rowmass).max())
    for entries in (1, 9, 1 << 16):
        monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", entries)
        rep = verify_cas(scheme)
        assert rep.pushforward_max_deviation == want


def test_a_relabelled_identity_keeps_the_column_read(monkeypatch):
    # CAS3 fails in the last tile alone: row and column 12 of 13 nodes
    base = cyclic_scheme(13)
    rel = base.relation.astype(np.int64)
    rel[12, 5] = rel[12, 6]
    scheme = Scheme(base.space, LabelSpace(
        involution=base.label_space.involution, identity_label=0), rel)
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", 16)
    calls = mirrored_calls(monkeypatch)
    rep = verify_cas(scheme, tolerance=1e-12)
    assert not rep.cas3_ok and rep.witnesses["cas3"][0]["pair"] == (5, 12)
    assert calls and set(calls) == {False}
