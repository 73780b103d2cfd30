"""A diagonal approximate identity scales instead of multiplying.

check_approximate_identity reads a real diagonal member's residuals from a
row scaling (left) and a column scaling (right) of each probe, and against
the members of a cell-form basis (default_probes hands them over as cell
probes) from the cell matrix alone. The oracle is the matmul route, which
every other member takes: with the diagonal test switched off, every
member takes it, and each residual array must agree bit for bit, on the
random weighted, non-symmetric and corrupted schemes of
test_joint_table_oracle and on cell matrices whose cells miss some rows
and columns.
"""

import tracemalloc

import numpy as np
import pytest

from casmat import (AlgebraBasis, IndicatorKernels, Kernel, LabelSpace,
                    Scheme, algebra_of_scheme, build_approximate_identity,
                    check_approximate_identity, circle_scheme, cyclic_scheme,
                    default_probes, hat_bump, indicator_bump, verify_bma)
from casmat import bma as bma_module
from casmat import kernel as kernel_module
from test_bma_oracle import CallCounter
from test_joint_table_oracle import CASES, random_scheme


def residuals(family, probes):
    rep = check_approximate_identity(family, probes, 1e-9)
    return rep.left_residuals, rep.right_residuals


def assert_matmul_route_agrees(family, probes, monkeypatch):
    got = residuals(family, probes)
    with monkeypatch.context() as m:
        m.setattr(kernel_module, "_real_diagonal", lambda K: None)
        want = residuals(family, probes)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes(), (g, w)


def diagonal_family(space, rng):
    """The composition identity's pattern, then a diagonal whose distance
    from 1 differs from row to row."""
    n = space.node_count
    return [Kernel(np.eye(n), space),
            Kernel(np.diag(rng.uniform(0.5, 1.5, n)), space)]


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_diagonal_route_matches_the_products(seed, integer_weights, corrupt,
                                             N, monkeypatch):
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    alg = algebra_of_scheme(scheme)
    family = [alg.basis[0]] + diagonal_family(scheme.space,
                                              np.random.default_rng(seed))
    probes, _ = default_probes(alg, count=3, seed=seed)
    assert all(isinstance(A, kernel_module._CellProbe)
               for A in probes[:alg.size])
    assert_matmul_route_agrees(family, probes, monkeypatch)
    # the same members as dense kernels give the same residuals
    dense = list(alg.basis) + probes[alg.size:]
    assert all(g.tobytes() == w.tobytes() for g, w in
               zip(residuals(family, probes), residuals(family, dense)))


@pytest.mark.parametrize("seed", range(4))
def test_cell_probes_read_rows_left_and_columns_right(seed, monkeypatch):
    # twice as many cell ids as nodes: most cells miss most rows and
    # columns, and some are empty
    scheme, _, _ = random_scheme(seed, False, True, 20)
    rng = np.random.default_rng(seed)
    n = scheme.space.node_count
    cells = rng.integers(0, 2 * n, (n, n))
    alg = AlgebraBasis(IndicatorKernels(cells, scheme.space, 2 * n))
    family = diagonal_family(scheme.space, rng)
    probes, _ = default_probes(alg, count=1, seed=seed)
    assert_matmul_route_agrees(family, probes, monkeypatch)
    left, right = residuals(family[1:], probes)
    assert not np.array_equal(left, right)


def cas1_broken_scheme():
    """cyclic(6) with the antipodal label merged into the identity."""
    base = cyclic_scheme(6)
    lut = np.array([0, 1, 2, 0, 3, 4])
    return Scheme(base.space,
                  LabelSpace(involution=[0, 4, 3, 2, 1], identity_label=0),
                  lut[base.relation])


NOT_DIAGONAL = {
    "hat bump": lambda: (circle_scheme(24, 4, signed=False),
                         lambda ls: hat_bump(ls, np.pi / 4,
                                             period=2 * np.pi)),
    "CAS1 broken": lambda: (cas1_broken_scheme(), indicator_bump),
}


@pytest.mark.parametrize("name", NOT_DIAGONAL)
def test_members_that_are_not_diagonal_multiply(name, monkeypatch):
    scheme, bump_of = NOT_DIAGONAL[name]()
    bump, nbhd = bump_of(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    assert kernel_module._real_diagonal(identity) is None
    alg = algebra_of_scheme(scheme)
    probes, policy = default_probes(alg, count=3, seed=0)
    matmul = CallCounter(kernel_module.matmul)
    monkeypatch.setattr(kernel_module, "matmul", matmul)
    monkeypatch.setattr(bma_module, "matmul", matmul)
    rep = verify_bma(alg, [identity], probes, 1e-9, policy)
    L = alg.size
    # one family member against L basis members and 3 random kernels,
    # left and right
    assert rep.stats["dense_matmuls"] == matmul.calls == 2 * (L + 3)
    # cell probes built on request give what the dense members give
    dense = list(alg.basis) + probes[L:]
    got = rep.identity_report
    want = check_approximate_identity([identity], dense, 1e-9)
    assert got.left_residuals.tobytes() == want.left_residuals.tobytes()
    assert got.right_residuals.tobytes() == want.right_residuals.tobytes()


def test_complex_diagonal_member_multiplies():
    # scaling by a complex diagonal rounds unlike BLAS's complex product
    scheme, _, _ = random_scheme(0, False, False, 7)
    alg = algebra_of_scheme(scheme)
    n = scheme.space.node_count
    member = Kernel(np.diag(np.full(n, 1 + 1e-3j)), scheme.space)
    assert kernel_module._real_diagonal(member) is None
    probes, _ = default_probes(alg, count=1, seed=0)
    rep = verify_bma(alg, [member], probes, 1e-2)
    assert rep.stats["dense_matmuls"] == 2 * (alg.size + 1)


def checked_with_indicator_identity(scheme):
    alg = algebra_of_scheme(scheme)
    bump, nbhd = indicator_bump(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    probes, policy = default_probes(alg, count=3, seed=0)
    return alg, verify_bma(alg, [identity], probes, 0.0, policy)


def test_diagonal_identity_holds_few_dense_kernels():
    # a first run loads what numpy loads on first use
    checked_with_indicator_identity(cyclic_scheme(4))
    scheme = cyclic_scheme(40)
    tracemalloc.start()
    try:
        alg, rep = checked_with_indicator_identity(scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    L, n = alg.size, scheme.space.node_count
    assert rep.passed() and rep.stats["dense_matmuls"] == 0
    # neither L dense probes nor the (L, L, L) coefficient tensor
    assert peak < (L / 2) * n * n * 16, peak / (n * n * 16)
