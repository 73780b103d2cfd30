"""Bit-exact references for the Bose-Mesner quantities of a cell basis.

verify_bma reads BMA2 and BMA4 from one table reduction per fiber and
BMA3 from one joint count of (cells, cells^T). The references below are
the passes those replaced, kept here as they were:

* the commutator residual from a dense joint_table for every one of the
  n^2 pairs, as the largest entry of h - h^T;
* the structure constants and BMA2 residual from the same per-pair
  tables, with the coefficient of A_k read at the first pair of fiber k;
* BMA3 as L passes of the cell span solver, one per transposed indicator.

Every value is a max, a min or a per-cell sum in increasing y, so the new
passes must equal them with ==, for float weights too, and whatever the
chunk size.
"""

import numpy as np
import pytest

from casmat import (algebra_of_scheme, circle_scheme, default_probes,
                    hamming_scheme, structure_constants, verify_bma)
from casmat import bma as bma_module
from casmat import scheme as scheme_module
from casmat.scheme import joint_table
from test_bma_oracle import s4_regular_scheme
from test_joint_table_oracle import CASES, random_scheme


def reference_tables(lab, w, L):
    """{(x, z): the L x L joint table of the pair}, one joint_table each."""
    n = w.size
    return {(x, z): joint_table(lab[x], lab[:, z], w, L)
            for x in range(n) for z in range(n)}


def reference_commutator(tables):
    """The largest entry of h - h^T over every pair's dense table."""
    return max(float((h - h.T).max()) for h in tables.values())


def reference_structure_constants(lab, tables, L):
    """(tensor, BMA2 residual): tensor[:, :, k] is the table of the first
    pair of fiber k (row-major), the residual its spread over the fiber."""
    tensor = np.zeros((L, L, L))
    residual = 0.0
    for k in range(L):
        pairs = list(zip(*np.nonzero(lab == k)))
        first = tables[pairs[0]]
        tensor[:, :, k] = first
        for p in pairs:
            residual = max(residual, float(np.abs(tables[p] - first).max()))
    return tensor, residual


def reference_bma3(lab, w, L):
    """One cell span solve per transposed indicator A_k^T."""
    expand = bma_module._cell_span_solver(lab, w, L)
    return max(expand(lab.T == k)[1] for k in range(L))


EXTRA_SCHEMES = {
    "s4": s4_regular_scheme,
    "hamming32": lambda: hamming_scheme(3, 2),
    "circle30": lambda: circle_scheme(30, 10, signed=True),
    "circle24u": lambda: circle_scheme(24, 6, signed=False),
}


SIZED_CASES = CASES + [
    pytest.param(seed, integer_weights, corrupt, 40,
                 id=f"{seed}-{integer_weights}-{corrupt}-n40")
    for seed in range(4) for integer_weights in (True, False)
    for corrupt in (False, True)]


def check_against_references(scheme):
    lab, w = scheme.relation, scheme.space.weights
    alg = algebra_of_scheme(scheme)
    L = alg.size
    tables = reference_tables(lab, w, L)
    probes, policy = default_probes(alg, count=1, seed=0)
    rep = verify_bma(alg, [alg.basis[0]], probes, 1e-9, policy)
    assert rep.commutative_residual == reference_commutator(tables)
    assert rep.bma3_residual == reference_bma3(lab, w, L)
    want_tensor, want_residual = reference_structure_constants(lab, tables, L)
    assert rep.bma2_residual == want_residual
    tensor, residual = structure_constants(alg)
    assert tensor.dtype == np.float64
    assert tensor.tobytes() == want_tensor.tobytes()
    assert residual == want_residual


@pytest.mark.parametrize("chunk", [None, 64, 1])
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", SIZED_CASES)
def test_random_schemes_match_references(seed, integer_weights, corrupt, N,
                                         chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", chunk)
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    check_against_references(scheme)


@pytest.mark.parametrize("chunk", [None, 64, 1])
@pytest.mark.parametrize("name", sorted(EXTRA_SCHEMES))
def test_catalog_schemes_match_references(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", chunk)
    check_against_references(EXTRA_SCHEMES[name]())


@pytest.mark.parametrize("N", [7, 20])
def test_cell_basis_reduces_each_fiber_once(N, monkeypatch):
    scheme, _, _ = random_scheme(1, False, True, N)
    alg = algebra_of_scheme(scheme)
    reduced = []
    own = bma_module._table_reduction

    def counted(relation, weights, xs, zs, *args, **kwargs):
        reduced.append(len(xs))
        return own(relation, weights, xs, zs, *args, **kwargs)
    monkeypatch.setattr(bma_module, "_table_reduction", counted)
    probes, policy = default_probes(alg, count=1, seed=0)
    verify_bma(alg, [alg.basis[0]], probes, 1e-9, policy)
    # one reduction per fiber, and together they cover the n^2 pairs once
    assert reduced == [int((scheme.relation == k).sum())
                       for k in range(alg.size)]
    assert max(reduced) < N * N and sum(reduced) == N * N
