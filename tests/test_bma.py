import numpy as np
import pytest

from casmat import (AlgebraBasis, Kernel, RankDeficiencyError,
                    algebra_of_scheme, build_approximate_identity,
                    check_approximate_identity, circle_scheme, cyclic_scheme,
                    default_probes, diagonal_kernel, hadamard, hamming_scheme,
                    hat_bump, indicator_bump, make_quadrature, matmul,
                    ones_kernel, span_expand, structure_constants,
                    sup_norm, validate_closure, verify_bma)


def brute_force_hamming_tensor():
    """Oracle: enumerate all vertex pairs of the 3-cube with pure loops."""
    verts = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]

    def dist(u, v):
        return sum(1 for a, b in zip(u, v) if a != b)

    p = np.zeros((4, 4, 4), dtype=int)
    counted = np.zeros((4, 4, 4), dtype=bool)
    for x in verts:
        for z in verts:
            k = dist(x, z)
            for i in range(4):
                for j in range(4):
                    m = sum(1 for y in verts
                            if dist(x, y) == i and dist(y, z) == j)
                    if counted[i, j, k]:
                        assert p[i, j, k] == m
                    else:
                        p[i, j, k] = m
                        counted[i, j, k] = True
    return p


def test_structure_constants_cyclic_group_algebra():
    alg = algebra_of_scheme(cyclic_scheme(5))
    tensor, residual = structure_constants(alg)
    assert residual == 0.0
    for i in range(5):
        for j in range(5):
            expected = np.zeros(5)
            expected[(i + j) % 5] = 1.0
            assert np.array_equal(tensor[i, j].real, expected)
            assert np.all(tensor[i, j].imag == 0.0)


def test_structure_constants_hamming_match_enumeration_oracle():
    alg = algebra_of_scheme(hamming_scheme(3, 2))
    tensor, residual = structure_constants(alg)
    assert residual == 0.0
    oracle = brute_force_hamming_tensor()
    assert np.array_equal(tensor.real, oracle)
    assert np.all(tensor.imag == 0.0)
    assert np.array_equal(tensor[1, 1].real, [3.0, 0.0, 2.0, 0.0])


def test_structure_constants_j_basis():
    space = make_quadrature([1.0, 2.0, 0.5])
    alg = AlgebraBasis(basis=(ones_kernel(space),), contains_J=True)
    tensor, residual = structure_constants(alg)
    assert abs(tensor[0, 0, 0] - space.total_mass) < 1e-12
    assert residual < 1e-12


def test_structure_constants_nonnegative_for_adjacency_basis():
    alg = algebra_of_scheme(cyclic_scheme(7))
    tensor, _ = structure_constants(alg)
    assert np.all(tensor.real >= 0)
    assert np.all(tensor.imag == 0)


def test_rank_deficiency_names_members():
    space = make_quadrature(np.ones(3))
    Id = diagonal_kernel(space)
    J = ones_kernel(space)
    dup = Kernel(2.0 * np.ones((3, 3)), space)
    alg = AlgebraBasis(basis=(Id, J, dup), contains_J=True)
    with pytest.raises(RankDeficiencyError) as err:
        structure_constants(alg)
    assert err.value.dependent == (2,)


def test_adjacency_basis_partition_identities():
    scheme = hamming_scheme(3, 2)
    alg = algebra_of_scheme(scheme)
    total = sum(K.entries for K in alg.basis)
    assert np.array_equal(total, ones_kernel(scheme.space).entries)
    for i, A in enumerate(alg.basis):
        for j, B in enumerate(alg.basis):
            had = hadamard(A, B).entries
            expected = A.entries if i == j else np.zeros_like(had)
            assert np.array_equal(had, expected)


def test_validate_closure_accepts_adjacency_basis():
    alg = algebra_of_scheme(cyclic_scheme(4))
    assert validate_closure(alg) <= 1e-12


def test_verify_bma_hamming_all_exact():
    scheme = hamming_scheme(3, 2)
    alg = algebra_of_scheme(scheme)
    bump, nbhd = indicator_bump(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    probes, policy = default_probes(alg, count=3, seed=5)
    report = verify_bma(alg, [identity], probes, tolerance=0.0,
                        probe_policy=policy)
    assert report.passed()
    assert np.all(report.bma1a_residuals == 0.0)
    assert report.bma1b_deviation == 0.0
    assert report.bma2_residual == 0.0
    assert report.bma3_ok
    assert report.commutative_residual == 0.0
    assert report.symmetric_ok
    assert "seed" in report.probe_policy


def test_verify_bma_cyclic3_commutative_not_symmetric():
    scheme = cyclic_scheme(3)
    alg = algebra_of_scheme(scheme)
    # oracle: transposing the first nontrivial circulant gives the other
    assert np.array_equal(alg.basis[1].entries.T, alg.basis[2].entries)
    bump, nbhd = indicator_bump(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    probes, _ = default_probes(alg, count=2, seed=1)
    report = verify_bma(alg, [identity], probes, tolerance=0.0)
    assert report.commutative_residual == 0.0
    assert not report.symmetric_ok
    assert report.symmetric_residual == 1.0


def test_verify_bma_two_point_id_j_basis():
    space = make_quadrature(np.ones(2))
    Id, J = diagonal_kernel(space), ones_kernel(space)
    alg = AlgebraBasis(basis=(Id, J))
    probes, _ = default_probes(alg, count=2, seed=2)
    report = verify_bma(alg, [Id], probes, tolerance=1e-12)
    assert report.passed()


def test_verify_bma_rejects_identity_outside_span():
    scheme = cyclic_scheme(4)
    alg = algebra_of_scheme(scheme)
    rng = np.random.default_rng(3)
    rogue = Kernel(rng.normal(size=(4, 4)), scheme.space)
    probes, _ = default_probes(alg, count=1, seed=0)
    with pytest.raises(ValueError, match="outside the span"):
        verify_bma(alg, [rogue], probes, tolerance=1e-9)


def test_indicator_bump_identity_is_exact_on_counting():
    scheme = hamming_scheme(2, 2)
    bump, nbhd = indicator_bump(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    assert np.array_equal(identity.entries,
                          diagonal_kernel(scheme.space).entries)


def test_hat_identity_rows_and_symmetry_on_circle():
    scheme = circle_scheme(240, 60, signed=True)
    bump, nbhd = hat_bump(scheme.label_space, np.pi / 8, period=2 * np.pi)
    # involution-symmetric bump: bump(i) == bump(i^T)
    inv = scheme.label_space.involution
    assert np.array_equal(bump, bump[inv])
    identity = build_approximate_identity(scheme, nbhd, bump)
    rows = identity.entries @ scheme.space.weights
    assert np.abs(rows - 1.0).max() <= 1e-10
    assert np.array_equal(identity.entries, identity.entries.T)
    assert np.all(identity.entries.real >= 0)


def test_build_identity_rejects_bad_bumps():
    scheme = cyclic_scheme(5)
    L = scheme.label_count
    bump = np.zeros(L)
    bump[0] = 0.5
    with pytest.raises(ValueError, match="equal 1"):
        build_approximate_identity(scheme, (0,), bump)
    bump = np.zeros(L)
    bump[0] = 1.0
    bump[2] = 0.3
    with pytest.raises(ValueError, match="leaks outside"):
        build_approximate_identity(scheme, (0, 1), bump)
    with pytest.raises(ValueError, match="contain the identity"):
        build_approximate_identity(scheme, (1, 2), bump)


def test_shrinking_neighborhood_monotonicity():
    scheme = circle_scheme(120, 12, signed=True)
    angles = np.asarray(scheme.space.coordinates)
    probe = Kernel(np.cos(angles[:, None] - angles[None, :]), scheme.space)
    family = []
    for width in (np.pi / 3, np.pi / 6, np.pi / 12):
        bump, nbhd = hat_bump(scheme.label_space, width, period=2 * np.pi)
        family.append(build_approximate_identity(scheme, nbhd, bump))
    report = check_approximate_identity(family, [probe], tolerance=0.05)
    assert report.all_non_increasing
    assert report.all_final_below


def test_matmul_documented_tolerance():
    # accumulation error of the weighted composition stays within the
    # documented 1e-10 relative budget
    rng = np.random.default_rng(8)
    space = make_quadrature(rng.uniform(0.5, 2.0, 50))
    A = Kernel(rng.normal(size=(50, 50)), space)
    B = Kernel(rng.normal(size=(50, 50)), space)
    got = matmul(A, B).entries
    w = space.weights
    oracle = np.array([[np.dot(A.entries[x] * w, B.entries[:, z]).real
                        for z in range(50)] for x in range(50)])
    scale = sup_norm(A) * sup_norm(B) * space.total_mass
    assert np.abs(got - oracle).max() <= 1e-10 * scale


@pytest.mark.parametrize("third", [
    lambda Id, J: 2.0 * J.entries,
    lambda Id, J: 2.0 * J.entries + 1e-13 * Id.entries,
])
def test_every_dense_entry_point_names_the_dependent_member(third):
    space = make_quadrature(np.ones(3))
    Id = diagonal_kernel(space)
    J = ones_kernel(space)
    alg = AlgebraBasis(basis=(Id, J, Kernel(third(Id, J), space)),
                       contains_J=True)
    for call in (lambda: verify_bma(alg, [Id], [Id], tolerance=1e-9),
                 lambda: validate_closure(alg),
                 lambda: span_expand(alg.basis, J.entries),
                 lambda: structure_constants(alg)):
        with pytest.raises(RankDeficiencyError) as err:
            call()
        assert err.value.dependent == (2,)
