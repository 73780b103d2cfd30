import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat import (Kernel, SpaceMismatchError, check_approximate_identity,
                    conjugate, diagonal_kernel, hadamard, make_quadrature,
                    matmul, ones_kernel, sup_norm, transpose)


def counting(n):
    return make_quadrature(np.ones(n))


def random_kernel(space, rng):
    n = space.node_count
    return Kernel(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                  space)


def test_j_compose_j():
    space = make_quadrature([1.0, 2.0, 0.5, 1.5])
    J = ones_kernel(space)
    JJ = matmul(J, J)
    assert np.allclose(JJ.entries, space.total_mass, rtol=0, atol=1e-14)


def test_identity_on_counting_measure_is_exact():
    space = counting(6)
    rng = np.random.default_rng(0)
    A = random_kernel(space, rng)
    assert np.array_equal(matmul(diagonal_kernel(space), A).entries, A.entries)
    assert np.array_equal(matmul(A, diagonal_kernel(space)).entries, A.entries)


def test_five_cycle_square_counts_common_neighbors():
    # A o A on the 5-cycle adjacency equals the common-neighbor count,
    # which only depends on the cyclic difference of the pair.
    n = 5
    space = counting(n)
    adj = np.zeros((n, n))
    for x in range(n):
        adj[x, (x + 1) % n] = 1.0
        adj[x, (x - 1) % n] = 1.0
    A = Kernel(adj, space)
    sq = matmul(A, A).entries.real
    # brute-force oracle over all 25 pairs
    for x in range(n):
        for z in range(n):
            count = sum(1 for y in range(n)
                        if adj[x, y] == 1.0 and adj[y, z] == 1.0)
            assert sq[x, z] == count
    by_difference = {}
    for x in range(n):
        for z in range(n):
            d = (z - x) % n
            by_difference.setdefault(d, set()).add(sq[x, z])
    assert all(len(vals) == 1 for vals in by_difference.values())


def test_hadamard_unit_and_disjoint_supports():
    space = counting(4)
    rng = np.random.default_rng(1)
    A = random_kernel(space, rng)
    assert np.array_equal(hadamard(A, ones_kernel(space)).entries, A.entries)
    A1 = Kernel(np.diag([1.0, 1.0, 0.0, 0.0]), space)
    A2 = Kernel(np.diag([0.0, 0.0, 1.0, 1.0]), space)
    assert np.all(hadamard(A1, A2).entries == 0)
    AC = hadamard(A, conjugate(A)).entries
    assert np.all(AC.real >= 0)
    assert np.allclose(AC.imag, 0.0, atol=1e-15)


def test_transpose_involution_and_sup_norm():
    space = counting(5)
    rng = np.random.default_rng(2)
    A = random_kernel(space, rng)
    assert np.array_equal(transpose(transpose(A)).entries, A.entries)
    assert sup_norm(ones_kernel(space)) == 1.0


def test_sup_norm_compose_bound():
    rng = np.random.default_rng(3)
    space = make_quadrature(rng.uniform(0.5, 2.0, 8))
    for _ in range(20):
        A = random_kernel(space, rng)
        B = random_kernel(space, rng)
        bound = sup_norm(A) * sup_norm(B) * space.total_mass
        assert sup_norm(matmul(A, B)) <= bound * (1 + 1e-12)


def test_compose_transpose_identity_exact_on_adjacency():
    # integer-valued sums are exact in any accumulation order
    rng = np.random.default_rng(4)
    space = counting(8)
    A = Kernel((rng.random((8, 8)) < 0.4).astype(float), space)
    B = Kernel((rng.random((8, 8)) < 0.4).astype(float), space)
    lhs = transpose(matmul(A, B)).entries
    rhs = matmul(transpose(B), transpose(A)).entries
    assert np.array_equal(lhs, rhs)


def test_compose_transpose_and_conjugate_identities():
    rng = np.random.default_rng(4)
    space = make_quadrature(rng.uniform(0.5, 2.0, 7))
    A = random_kernel(space, rng)
    B = random_kernel(space, rng)
    lhs = transpose(matmul(A, B)).entries
    rhs = matmul(transpose(B), transpose(A)).entries
    scale = sup_norm(A) * sup_norm(B) * space.total_mass
    assert np.abs(lhs - rhs).max() <= 1e-13 * scale
    # conjugation commutes with composition bitwise: weights are real
    lhs = conjugate(matmul(A, B)).entries
    rhs = matmul(conjugate(A), conjugate(B)).entries
    assert np.array_equal(lhs, rhs)


def test_compose_associativity_bound():
    rng = np.random.default_rng(5)
    space = make_quadrature(rng.uniform(0.5, 2.0, 9))
    for _ in range(10):
        A, B, C = (random_kernel(space, rng) for _ in range(3))
        left = matmul(matmul(A, B), C).entries
        right = matmul(A, matmul(B, C)).entries
        budget = (1e-10 * sup_norm(A) * sup_norm(B) * sup_norm(C)
                  * space.total_mass ** 2)
        assert np.abs(left - right).max() <= budget


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_hadamard_commutative(n, seed):
    space = counting(n)
    rng = np.random.default_rng(seed)
    # exact for real-valued kernels; complex SIMD paths may differ by an ulp
    A = Kernel(rng.normal(size=(n, n)), space)
    B = Kernel(rng.normal(size=(n, n)), space)
    assert np.array_equal(hadamard(A, B).entries, hadamard(B, A).entries)
    A, B = (random_kernel(space, rng) for _ in range(2))
    lhs, rhs = hadamard(A, B).entries, hadamard(B, A).entries
    assert np.abs(lhs - rhs).max() <= 1e-15 * sup_norm(A) * sup_norm(B)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_hadamard_associative(n, seed):
    space = counting(n)
    rng = np.random.default_rng(seed)
    # exact on integer-valued kernels, tight elsewhere (products round)
    A, B, C = (Kernel(rng.integers(-3, 4, size=(n, n)).astype(float), space)
               for _ in range(3))
    assert np.array_equal(hadamard(hadamard(A, B), C).entries,
                          hadamard(A, hadamard(B, C)).entries)
    A, B, C = (random_kernel(space, rng) for _ in range(3))
    lhs = hadamard(hadamard(A, B), C).entries
    rhs = hadamard(A, hadamard(B, C)).entries
    scale = sup_norm(A) * sup_norm(B) * sup_norm(C)
    assert np.abs(lhs - rhs).max() <= 1e-14 * scale


def test_space_mismatch_rejected():
    s1, s2 = counting(4), counting(4)
    rng = np.random.default_rng(6)
    A = random_kernel(s1, rng)
    B = random_kernel(s2, rng)
    with pytest.raises(SpaceMismatchError):
        matmul(A, B)
    with pytest.raises(SpaceMismatchError):
        hadamard(A, B)


def test_non_finite_entries_rejected():
    space = counting(2)
    with pytest.raises(ValueError, match="finite"):
        Kernel([[1.0, np.inf], [0.0, 0.0]], space)


def test_approximate_identity_exact_on_counting():
    space = counting(5)
    rng = np.random.default_rng(7)
    probes = [random_kernel(space, rng) for _ in range(3)]
    report = check_approximate_identity([diagonal_kernel(space)], probes,
                                        tolerance=0.0)
    assert np.all(report.left_residuals == 0.0)
    assert np.all(report.right_residuals == 0.0)
    assert report.all_non_increasing and report.all_final_below


def test_approximate_identity_averaging_fails():
    # J/total_mass averages rows, so a non-constant probe keeps a
    # residual above tolerance
    space = counting(6)
    rng = np.random.default_rng(8)
    A = random_kernel(space, rng)
    J_avg = Kernel(np.ones((6, 6)) / space.total_mass, space)
    report = check_approximate_identity([J_avg], [A], tolerance=1e-6)
    assert report.left_residuals[0, 0] > 1e-6
    assert not report.all_final_below

