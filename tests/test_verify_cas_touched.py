"""verify_cas's touched-cell bookkeeping against the dense bookkeeping.

For the singleton family verify_cas reads CAS2 (with its witness), CAS4
and the fiber-transpose identity only off the cells a fiber's pairs touch,
from a K x K scratch made once per call and reset at those cells. The
oracle below keeps every fiber's dense L x L sum, min and max, built by the
per-pair loop reference_pair_stats, and reads the three checks off the
whole tables:

  CAS2       the largest hi - lo, witnessed by its first cell in
             row-major order (of the first label in orbit order);
  CAS4       the largest |mean[a, b] - mean[b, a]|;
  transpose  the largest |mean_k[a, b] - mean_kt[b^T, a^T]|.

It samples as verify_cas does: one generator over the labels' involution
orbits, a transposed sample for k^T on CAS3-consistent schemes and an
independent one otherwise. The reports must be equal, field for field.
"""

import numpy as np
import pytest

from casmat import (algebra_of_scheme, circle_scheme, cyclic_scheme,
                    kernel_of_scheme, structure_constants, verify_cas,
                    verify_strong_cas)
from casmat import bma as bma_module
from casmat import hypergroup as hypergroup_module
from casmat import scheme as scheme_module
from casmat.scheme import (_CellScratch, _reduce_cells, _sample_fiber,
                           _table_reduction)
from test_joint_table_oracle import CASES, random_scheme, reference_pair_stats


def dense_singleton_report(scheme, max_pairs, seed):
    """verify_cas(scheme, max_pairs_per_fiber=max_pairs, seed=seed) as a
    dict, its CAS2, CAS4 and transpose fields from dense L x L tables. The
    fields no fiber table feeds (CAS1, CAS3, row masses) are verify_cas's
    own."""
    rel, w = scheme.relation, scheme.space.weights
    L = scheme.label_count
    inv = scheme.label_space.involution
    cas3_ok = np.array_equal(inv[rel], rel.T)
    rng = np.random.default_rng(seed)
    sampled = False
    cas2 = cas4 = transpose = 0.0
    witness = None
    checked = 0

    def sample(k):
        nonlocal sampled
        xs, zs, was_sampled = _sample_fiber(scheme, k, max_pairs, rng)
        sampled = sampled or was_sampled
        return xs, zs

    for k in range(L):
        kt = int(inv[k])
        if kt < k:
            continue
        xs, zs = sample(k)
        orbit = [(k, xs, zs)]
        if kt != k:
            orbit.append((kt, zs, xs) if cas3_ok else (kt, *sample(kt)))
        means = []
        for lab, xs, zs in orbit:
            checked += 1
            total, lo, hi = reference_pair_stats(rel, w, L, xs, zs)
            dev = hi - lo
            if dev.max() > cas2:
                cas2 = float(dev.max())
                a, b = np.unravel_index(np.argmax(dev), dev.shape)
                witness = {"fiber_label": lab, "W": [int(a)],
                           "W_prime": [int(b)], "min_value": float(lo[a, b]),
                           "max_value": float(hi[a, b]), "deviation": cas2}
            mean = total / xs.size
            cas4 = max(cas4, float(np.abs(mean - mean.T).max()))
            means.append(mean)
        # partner[a, b] = mean_kt[b^T, a^T]
        partner = means[-1][inv[None, :], inv[:, None]]
        transpose = max(transpose, float(np.abs(means[0] - partner).max()))

    got = verify_cas(scheme, max_pairs_per_fiber=max_pairs, seed=seed)
    want = got.as_dict()
    want.update(cas2_max_deviation=cas2, cas4_max_deviation=cas4,
                commutative=cas4 <= 0.0,
                involution_identity_max_deviation=transpose,
                labels_checked=checked, sampled=sampled)
    want["witnesses"].pop("cas2", None)
    if cas2 > 0.0:
        want["witnesses"]["cas2"] = [witness]
    return got.as_dict(), want


def shrink_chunks(monkeypatch, budget):
    """Both chunk budgets set to budget (None keeps the defaults), so that
    some cells are touched by only some chunks of a fiber."""
    if budget is not None:
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", budget)
        monkeypatch.setattr(scheme_module, "_TOUCHED_ENTRIES", budget)


@pytest.mark.parametrize("budget", [1, 64, None])
@pytest.mark.parametrize("max_pairs", [None, 3])
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_touched_cells_match_dense_bookkeeping(seed, integer_weights, corrupt,
                                               N, max_pairs, budget,
                                               monkeypatch):
    shrink_chunks(monkeypatch, budget)
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    got, want = dense_singleton_report(scheme, max_pairs, seed)
    assert got == want


@pytest.mark.parametrize("budget", [1, None])
def test_cas2_tie_is_witnessed_by_its_first_cell(budget, monkeypatch):
    # on this corrupted 7-node scheme the largest deviation, 8.0, is
    # reached at cells (1, 1) and (2, 2) of fiber 3; with one pair a
    # chunk, (2, 2) joins the fiber's touched cells before (1, 1)
    shrink_chunks(monkeypatch, budget)
    scheme, _, _ = random_scheme(0, True, True)
    got, want = dense_singleton_report(scheme, None, 0)
    assert got == want
    assert want["witnesses"]["cas2"] == [{
        "fiber_label": 3, "W": [1], "W_prime": [1], "min_value": 0.0,
        "max_value": 8.0, "deviation": 8.0}]
    xs, zs = np.nonzero(scheme.relation == 3)
    _, lo, hi = reference_pair_stats(scheme.relation, scheme.space.weights,
                                     4, xs, zs)
    assert np.argwhere(hi - lo == 8.0).tolist() == [[1, 1], [2, 2]]


def counted_scratch(monkeypatch, module, made):
    class Counted(_CellScratch):
        def __init__(self, K, n):
            made.append(K)
            super().__init__(K, n)
    monkeypatch.setattr(module, "_CellScratch", Counted)


def test_each_pass_builds_its_scratch_once(monkeypatch):
    # circle(24, 4): 24 labels (24 * 24 > 24 nodes), 4 disjoint bins
    scheme = circle_scheme(24, 4)
    made = []
    counted_scratch(monkeypatch, scheme_module, made)
    verify_cas(scheme)
    assert made == [24]
    made.clear()
    verify_cas(scheme, max_pairs_per_fiber=3)
    assert made == [24]
    made.clear()
    verify_cas(scheme, borel_family="bins")
    assert made == [24, 5]
    made.clear()
    verify_cas(scheme, borel_family=[(0, 1), (1, 2)])
    assert made == []

    # both reduce every fiber through scheme.py's whole-fiber pass
    for module in (bma_module, hypergroup_module):
        assert not hasattr(module, "_CellScratch")
    structure_constants(algebra_of_scheme(scheme))
    assert made == [24]
    made.clear()
    hg = kernel_of_scheme(scheme)
    verify_strong_cas(hg, [(np.ones(24), np.ones(24))], 1e-9)
    assert made == [24]


@pytest.mark.parametrize("budget", [1, 64, None])
@pytest.mark.parametrize("N", [7, 20])
def test_consecutive_fibers_match_fresh_calls(N, budget, monkeypatch):
    # N = 7 numbers the touched cells (16 > 7), N = 20 keeps every cell
    shrink_chunks(monkeypatch, budget)
    scheme, _, _ = random_scheme(3, False, True, N)
    rel, w = scheme.relation, scheme.space.weights
    scratch = _CellScratch(4, N)
    made = scratch.slot.copy()
    for k in (1, 3, 2, 1):
        xs, zs = np.nonzero(rel == k)
        got = _reduce_cells(rel, w, xs, zs, scratch)
        want = _reduce_cells(rel, w, xs, zs, _CellScratch(4, N))
        for g, e in zip(got, want):
            assert np.array_equal(g, e), (g, e)
        # reset at the touched cells: the column map is as made
        assert np.array_equal(scratch.slot, made)


@pytest.mark.parametrize("budget", [1, 64])
def test_cells_first_met_in_a_later_chunk_start_at_zero(budget, monkeypatch):
    # the fiber's first pairs leave out cells its later pairs meet: min
    # there is 0, the value of the pairs before; the prefixes of 2 and 5
    # pairs end on a chunk that meets such cells
    shrink_chunks(monkeypatch, budget)
    scheme, _, _ = random_scheme(3, False, True)
    rel, w = scheme.relation, scheme.space.weights
    scratch = _CellScratch(4, 7)
    for k in range(4):
        xs, zs = np.nonzero(rel == k)
        for pairs in (2, 5, xs.size):
            got = _table_reduction(rel, w, xs[:pairs], zs[:pairs], 4,
                                   scratch=scratch)
            want = reference_pair_stats(rel, w, 4, xs[:pairs], zs[:pairs])
            for g, e in zip(got, want):
                assert np.array_equal(g, e), (k, pairs, g, e)


def test_sampled_cyclic600_report():
    # 600 labels on 600 nodes, 20 pairs a fiber: the report the dense
    # L x L bookkeeping gives, which took about 10 s a call
    rep = verify_cas(cyclic_scheme(600), max_pairs_per_fiber=20, seed=303)
    assert rep.as_dict() == {
        "cas1_ok": True, "cas3_ok": True, "cas2_max_deviation": 0.0,
        "cas4_max_deviation": 0.0, "symmetric": False, "commutative": True,
        "borel_family_descriptor": "singletons (600 sets)",
        "involution_identity_max_deviation": 0.0,
        "row_valency_max_deviation": 0.0, "pushforward_max_deviation": 0.0,
        "tolerance": 0.0, "diagonal_slack": 0, "labels_checked": 600,
        "sampled": True, "witnesses": {}}
