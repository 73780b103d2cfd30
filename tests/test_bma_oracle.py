"""Differential tests of verify_bma against a brute-force dense oracle.

An adjacency-indicator basis is checked on its cell matrix: no dense
product or solve runs apart from the approximate-identity probes. The
oracle below rebuilds every checked quantity from dense kernels, composes
them with plain `@` against the diagonal weight matrix and expands them in
the span with np.linalg.lstsq, on the random weighted, non-symmetric and
corrupted schemes of test_joint_table_oracle and on the regular action of
S4 (not commutative). Products, row masses and their differences are
exact with integer weights; least-squares residuals never are, so they
and everything with other weights compare within 1e-12.

algebra_of_scheme holds the basis in cell form. Its dense twin, the same
indicators given as dense kernels, has its cell matrix found when it is
made, and must give the same report bit for bit; with that finding
switched off the twin takes the dense path of products and solves.
"""

from itertools import permutations

import numpy as np
import pytest

from casmat import (AlgebraBasis, Kernel, RankDeficiencyError,
                    algebra_of_scheme, default_probes, group_action_scheme,
                    hamming_scheme, structure_constants, verify_bma)
from casmat import bma as bma_module
from casmat import kernel as kernel_module
from casmat import scheme as scheme_module
from test_character_partition_oracle import dense_twin
from test_joint_table_oracle import CASES, random_scheme


def s4_regular_scheme():
    """S4 acting on its 24 elements by left multiplication: 24 labels."""
    elements = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(elements)}
    gens = [[index[tuple(g[h[i]] for i in range(4))] for h in elements]
            for g in ((1, 0, 2, 3), (1, 2, 3, 0))]
    return group_action_scheme(gens)


def lstsq_residual(kernels, w, target):
    """sup |target - its weighted least-squares projection on the span|."""
    sw = np.sqrt(np.outer(w, w)).ravel()
    B = np.stack([K.ravel() for K in kernels], axis=1)
    coeffs, *_ = np.linalg.lstsq(B * sw[:, None], target.ravel() * sw,
                                 rcond=None)
    return float(np.abs(target.ravel() - B @ coeffs).max())


def oracle(rel, w, kernels=None):
    """(bma1b, bma2, bma3 residual, commutator) from dense kernels.

    bma2 follows structure_constants: on a cell basis the coefficient of
    A_k is the product's value at the first pair of cell k (row-major), so
    the residual is the product's spread from it; on any other basis it is
    the least-squares residual.
    """
    rel = np.asarray(rel)
    L = int(rel.max()) + 1
    cells = kernels is None
    if cells:
        kernels = [(rel == k).astype(float) for k in range(L)]
    W = np.diag(w)
    J = np.ones_like(W)
    bma1b = 0.0
    for A in kernels:
        C = A @ W @ J
        bma1b = max(bma1b, float(np.abs(C - C[0, 0]).max()))
    P = {(i, j): A @ W @ B for i, A in enumerate(kernels)
         for j, B in enumerate(kernels)}
    bma2 = 0.0
    for prod in P.values():
        if cells:
            for k in range(L):
                x, z = np.argwhere(rel == k)[0]
                spread = np.abs(prod[rel == k] - prod[x, z]).max()
                bma2 = max(bma2, float(spread))
        else:
            bma2 = max(bma2, lstsq_residual(kernels, w, prod))
    bma3 = max(lstsq_residual(kernels, w, A.T) for A in kernels)
    comm = max(float(np.abs(P[i, j] - P[j, i]).max())
               for i in range(len(kernels)) for j in range(len(kernels)))
    return bma1b, bma2, bma3, comm


def run_verify_bma(alg, tolerance=1e-9):
    # the diagonal indicator lies in the span of every basis used here
    probes, policy = default_probes(alg, count=2, seed=0)
    return verify_bma(alg, [alg.basis[0]], probes, tolerance, policy)


def agree(got, want, exact):
    if exact:
        assert got == want, (got, want)
    else:
        assert abs(got - want) <= 1e-12, (got, want)


def check_against_oracle(rep, rel, w, exact, tolerance=1e-9, kernels=None):
    bma1b, bma2, bma3, comm = oracle(rel, w, kernels)
    agree(rep.bma1b_deviation, bma1b, exact)
    agree(rep.bma2_residual, bma2, exact)
    agree(rep.bma3_residual, bma3, False)
    agree(rep.commutative_residual, comm, exact)
    # every basis here is 0/1: the membership budget is 1e-9 * (1 + 1)
    assert rep.bma3_ok == (bma3 <= tolerance + 2e-9)


@pytest.mark.parametrize("chunk", [None, 64, 1])
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_cell_basis_matches_dense_oracle(seed, integer_weights, corrupt, N,
                                         chunk, monkeypatch):
    if chunk is not None:
        # a chunk of 64 entries holds 3 or 4 pairs, a chunk of 1 one pair
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", chunk)
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    rep = run_verify_bma(algebra_of_scheme(scheme))
    assert rep.stats["basis_path"] == "cells"
    check_against_oracle(rep, rel, w, integer_weights)
    assert rep.bma3_ok is not corrupt


@pytest.mark.parametrize("chunk", [None, 64, 1])
def test_s4_regular_action_is_not_commutative(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", chunk)
    scheme = s4_regular_scheme()
    rep = run_verify_bma(algebra_of_scheme(scheme))
    assert rep.stats["basis_path"] == "cells"
    check_against_oracle(rep, scheme.relation, scheme.space.weights, True)
    assert rep.commutative_residual > 0.0
    assert rep.bma1b_deviation == rep.bma2_residual == 0.0
    assert rep.bma3_residual == 0.0 and rep.bma3_ok


def test_appended_zero_kernel_is_named_as_dependent():
    scheme, _, _ = random_scheme(0, True, False)
    alg = algebra_of_scheme(scheme)
    zero = Kernel(np.zeros_like(alg.basis[0].entries), scheme.space)
    padded = AlgebraBasis(basis=alg.basis + (zero,))
    with pytest.raises(RankDeficiencyError) as err:
        run_verify_bma(padded)
    assert err.value.dependent == (len(alg.basis),)


@pytest.mark.parametrize("integer_weights", [True, False])
def test_uncovered_cell_takes_the_dense_path(integer_weights):
    scheme, rel, w = random_scheme(2, integer_weights, False, 20)
    alg = algebra_of_scheme(scheme)
    # label 3 is left out: the 0/1 kernels no longer cover every pair
    partial = AlgebraBasis(basis=alg.basis[:3])
    rep = run_verify_bma(partial)
    assert rep.stats["basis_path"] == "dense"
    kernels = [K.entries.real for K in partial.basis]
    check_against_oracle(rep, rel, w, False, kernels=kernels)
    assert rep.bma2_residual > 1.0


class CallCounter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("cells", [True, False])
def test_stats_count_the_dense_work_done(cells, monkeypatch):
    scheme, _, _ = random_scheme(1, True, False, 20)
    alg = algebra_of_scheme(scheme)
    if not cells:
        alg = AlgebraBasis(basis=alg.basis[:3])
    matmul = CallCounter(kernel_module.matmul)
    solve = CallCounter(np.linalg.solve)
    monkeypatch.setattr(kernel_module, "matmul", matmul)
    monkeypatch.setattr(bma_module, "matmul", matmul)
    monkeypatch.setattr(np.linalg, "solve", solve)
    probes, policy = default_probes(alg, count=3, seed=0)
    rep = verify_bma(alg, [alg.basis[0]], probes, 1e-9, policy)
    L = alg.size
    assert rep.stats == {"basis_path": "cells" if cells else "dense",
                         "dense_matmuls": matmul.calls,
                         "span_solves": solve.calls}
    assert rep.as_dict()["stats"] == rep.stats
    if cells:
        # alg.basis[0] is diagonal: it scales the L basis members and 3
        # random kernels instead of multiplying them
        assert matmul.calls == 0
        assert solve.calls == 0


# hamming32 is symmetric, so BMA5 reads 0 on it and 1 on the others
TWIN_CASES = CASES + [pytest.param("hamming32", True, False, 8,
                                   id="hamming32")]


@pytest.mark.parametrize("tol", (0.0, 1e-9, 1.0))
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", TWIN_CASES)
def test_cell_form_matches_its_dense_twin(seed, integer_weights, corrupt, N,
                                          tol, monkeypatch):
    if seed == "hamming32":
        scheme = hamming_scheme(3, 2)
    else:
        scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    cells, twin = algebra_of_scheme(scheme), dense_twin(scheme)
    assert cells.cell_form and not twin.cell_form
    assert np.array_equal(twin.cells, cells.cells)
    rep, want = run_verify_bma(cells, tol), run_verify_bma(twin, tol)
    assert rep.as_dict() == want.as_dict()
    assert rep.bma1a_residuals.tobytes() == want.bma1a_residuals.tobytes()
    assert rep.stats["basis_path"] == "cells"
    tensor, residual = structure_constants(cells)
    assert tensor.dtype == np.float64
    want_tensor, want_residual = structure_constants(twin)
    assert tensor.tobytes() == want_tensor.tobytes()
    assert residual == want_residual

    # without the cell matrix the twin runs dense products and solves
    monkeypatch.setattr(bma_module, "_cell_matrix", lambda basis: None)
    dense_alg = dense_twin(scheme)
    dense = run_verify_bma(dense_alg, tol)
    assert dense.stats["basis_path"] == "dense"
    agree(rep.bma1b_deviation, dense.bma1b_deviation, integer_weights)
    agree(rep.commutative_residual, dense.commutative_residual,
          integer_weights)
    agree(rep.bma3_residual, dense.bma3_residual, False)
    assert rep.symmetric_residual == dense.symmetric_residual
    assert rep.symmetric_residual == (0.0 if seed == "hamming32" else 1.0)
    assert np.abs(rep.bma1a_residuals - dense.bma1a_residuals).max() <= 1e-12
    if seed == "hamming32":
        # constant intersection numbers: the dense expansion finds them
        dense_tensor, _ = structure_constants(dense_alg)
        assert np.abs(dense_tensor - tensor).max() <= 1e-12
        assert rep.bma2_residual == 0.0 and dense.bma2_residual <= 1e-12


def test_dense_verify_bma_builds_one_span_solver(monkeypatch):
    scheme, _, _ = random_scheme(3, False, False, 20)
    dense = AlgebraBasis(basis=algebra_of_scheme(scheme).basis[:3])
    probes, policy = default_probes(dense, count=3, seed=0)
    # the report as it was when structure_constants built its own solver
    own = bma_module.structure_constants
    with monkeypatch.context() as m:
        m.setattr(bma_module, "structure_constants",
                  lambda alg, _expand=None: own(alg))
        before = verify_bma(dense, [dense.basis[0]], probes, 1e-9, policy)
    solver = CallCounter(bma_module._span_solver)
    rank = CallCounter(bma_module.check_rank)
    monkeypatch.setattr(bma_module, "_span_solver", solver)
    monkeypatch.setattr(bma_module, "check_rank", rank)
    rep = verify_bma(dense, [dense.basis[0]], probes, 1e-9, policy)
    assert rep.stats["basis_path"] == "dense"
    assert (solver.calls, rank.calls) == (1, 1)
    # the shared solver changes no number of the report
    assert np.array_equal(rep.bma1a_residuals, before.bma1a_residuals)
    assert repr(rep.as_dict()) == repr(before.as_dict())
    # structure_constants on its own still builds its solver
    bma_module.structure_constants(dense)
    assert (solver.calls, rank.calls) == (2, 2)
