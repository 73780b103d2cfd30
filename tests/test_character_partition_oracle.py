"""Differential tests of the character partition against a brute-force
oracle.

character_partition groups the node pairs of a dense basis exactly, by
one sort of each pair's values as a byte row; scheme_of_algebra and
roundtrip_check number cells and labels by first occurrence. The oracle
below does the same work with plain Python: it keys each pair by the
tuple of its basis values (so -0.0 and 0.0 are one key), numbers cells by
first row-major occurrence, and merges the connected components of groups
whose values agree within the tolerance. Every engine must match it
exactly, bit for bit.

The indicator algebra of a scheme is held in cell form, so its partition
is a first-occurrence relabel of the relation and never sorts values; its
dense twin, the same indicators given as dense kernels, takes the value
grouping. No command builds a dense basis, so the twin is how the value
grouping is reached. The two must agree bit for bit on the random
weighted, non-symmetric and corrupted schemes of test_joint_table_oracle
and on the catalog schemes.
"""

import random

import numpy as np
import pytest

from casmat import (AlgebraBasis, DiagonalContaminationError,
                    IndicatorKernels, InvolutionUndefinedError, Kernel,
                    LabelSpace, Scheme, algebra_of_scheme,
                    character_partition, circle_scheme, cyclic_scheme,
                    delsarte_scheme, dihedral_group,
                    group_action_scheme, hamming_scheme, make_quadrature,
                    roundtrip_check, scheme_of_algebra, sphere_scheme,
                    symmetric_group)
from casmat import correspondence
from test_joint_table_oracle import CASES, random_scheme


def oracle_partition(basis, tol):
    """(cells as an n x n list, representative value tuples per cell)."""
    n = basis[0].space.node_count
    rows = [tuple(complex(K.entries[x, y]) for K in basis)
            for x in range(n) for y in range(n)]
    groups = {}
    group_of = [groups.setdefault(r, len(groups)) for r in rows]
    reps = list(groups)
    parent = list(range(len(reps)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    if tol > 0:
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if max(abs(u - v) for u, v in zip(reps[a], reps[b])) <= tol:
                    parent[find(b)] = find(a)
    cell_of_root = {}
    cells = [cell_of_root.setdefault(find(g), len(cell_of_root))
             for g in group_of]
    values = {}
    for flat, c in enumerate(cells):
        values.setdefault(c, rows[flat])
    return ([cells[x * n:(x + 1) * n] for x in range(n)],
            [values[c] for c in range(len(values))])


def oracle_scheme(cells):
    """(involution list, identity label), or the exception and the first
    pair in row-major order that its message names."""
    n = len(cells)
    i0 = cells[0][0]
    for x in range(n):
        if cells[x][x] != i0:
            return DiagonalContaminationError, (x, x)
    for x in range(n):
        for y in range(n):
            if x != y and cells[x][y] == i0:
                return DiagonalContaminationError, (x, y)
    inv = {}
    for x in range(n):
        for y in range(n):
            c, ct = cells[x][y], cells[y][x]
            if inv.setdefault(c, ct) != ct:
                return InvolutionUndefinedError, (x, y)
    return [inv[c] for c in range(len(inv))], i0


def is_refusal(want):
    return isinstance(want, tuple) and isinstance(want[0], type)


def oracle_roundtrip(scheme, tol):
    """roundtrip_check's report as a dict, or the exception and its pair."""
    rel = scheme.relation.tolist()
    n, L = len(rel), scheme.label_count
    cells, _ = oracle_partition(algebra_of_scheme(scheme).basis, tol)
    recovered = oracle_scheme(cells)
    if is_refusal(recovered):
        return recovered
    inv_r, i0_r = recovered
    mapping = [-1] * L
    for x in range(n):
        for y in range(n):
            if mapping[rel[x][y]] < 0:
                mapping[rel[x][y]] = cells[x][y]
    bad = [(x, y) for x in range(n) for y in range(n)
           if mapping[rel[x][y]] != cells[x][y]]
    match = len(inv_r) == L and not bad and len(set(mapping)) == L
    witness = None
    if not match:
        if bad:
            x, y = bad[0]
            witness = {"pair": (x, y), "original_label": rel[x][y],
                       "recovered_label": cells[x][y]}
        else:
            witness = {"detail": "label counts differ",
                       "original": L, "recovered": len(inv_r)}
    inv_o = scheme.label_space.involution.tolist()
    i0_o = scheme.label_space.identity_label
    return {
        "partition_match": match,
        "involution_consistent": match and all(
            mapping[inv_o[i]] == inv_r[mapping[i]] for i in range(L)),
        "identity_consistent": match and i0_o is not None
        and mapping[i0_o] == i0_r,
        "label_bijection": {str(i): mapping[i] for i in range(L)},
        "original_labels": L,
        "recovered_labels": len(inv_r),
        "witness": witness,
    }


def assert_partition_matches(basis, tol):
    part = character_partition(AlgebraBasis(basis=tuple(basis)), tol)
    cells, values = oracle_partition(basis, tol)
    assert part.cell_matrix.dtype == np.int32
    assert part.cell_matrix.tolist() == cells
    want = np.array(values, dtype=complex).reshape(len(values), len(basis))
    # bit for bit, so the sign of a representative's zero must survive
    assert part.representative_values.tobytes() == want.tobytes()


def assert_scheme_matches(basis, tol):
    alg = AlgebraBasis(basis=tuple(basis))
    cells, _ = oracle_partition(basis, tol)
    want = oracle_scheme(cells)
    if is_refusal(want):
        error, (x, y) = want
        with pytest.raises(error) as err:
            scheme_of_algebra(alg, tol)
        assert f"({x},{y})" in str(err.value).replace(" ", "")
        return
    got = scheme_of_algebra(alg, tol)
    assert got.relation.tolist() == cells
    assert got.label_space.involution.tolist() == want[0]
    assert got.label_space.identity_label == want[1]


def assert_roundtrip_matches(scheme, tol):
    want = oracle_roundtrip(scheme, tol)
    if is_refusal(want):
        error, (x, y) = want
        with pytest.raises(error) as err:
            roundtrip_check(scheme, tol)
        assert f"({x},{y})" in str(err.value).replace(" ", "")
        return
    got = roundtrip_check(scheme, tol).as_dict()
    assert got == want


# values with repeats, both zeros, and neighbours 1e-12 and 0.5 apart
POOL = [0.0, -0.0, 1.0, 1.0 + 1e-12, 2.5, 0.5, -1j, complex(-0.0, 1.0),
        complex(0.5, -0.0), 1.0 - 1e-12j]


def random_basis(seed):
    """Random complex kernels over a small pool of values.

    Most bases hold the diagonal indicator and give the other kernels a
    constant diagonal, and kernels are often symmetric or come with their
    transpose, so the recovered scheme often exists.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    space = make_quadrature(np.ones(n))
    with_diagonal = rng.random() < 0.7
    basis = [Kernel(np.eye(n), space)] if with_diagonal else []
    for _ in range(rng.randint(1, 3)):
        pool = rng.sample(POOL, rng.randint(1, 4))
        E = np.array([[rng.choice(pool) for _ in range(n)]
                      for _ in range(n)], dtype=complex)
        if with_diagonal:
            np.fill_diagonal(E, E[0, 0])
        shape = rng.choice(["plain", "symmetric", "with transpose"])
        if shape == "symmetric":
            E = np.where(np.triu(np.ones((n, n), dtype=bool)), E, E.T)
        basis.append(Kernel(E, space))
        if shape == "with transpose":
            basis.append(Kernel(E.T, space))
    return basis


TOLERANCES = (0.0, 1e-9, 0.6)


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("seed", range(40))
def test_random_bases_match_oracle(seed, tol):
    basis = random_basis(seed)
    assert_partition_matches(basis, tol)
    assert_scheme_matches(basis, tol)


def test_negative_zero_groups_with_zero():
    space = make_quadrature(np.ones(2))
    E = np.array([[-0.0, 0.0], [complex(0.0, -0.0), 1.0]])
    part = character_partition(AlgebraBasis(basis=(Kernel(E, space),)))
    assert part.cell_matrix.tolist() == [[0, 0], [0, 1]]
    # the cell keeps its first member's value, sign of zero included
    assert np.signbit(part.representative_values[0, 0].real)
    assert_partition_matches([Kernel(E, space)], 0.0)


def test_tolerance_merges_chains_of_groups():
    # 0 ~ 0.5 ~ 1.0 within 0.6, so the three values form one cell even
    # though 0 and 1.0 are farther apart than the tolerance
    space = make_quadrature(np.ones(3))
    E = np.array([[0.0, 1.0, 2.5], [0.5, 0.0, 1.0], [2.5, 0.5, 0.0]])
    part = character_partition(AlgebraBasis(basis=(Kernel(E, space),)), 0.6)
    assert part.cell_matrix.tolist() == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    assert_partition_matches([Kernel(E, space)], 0.6)


def corrupted(scheme, x, y, label):
    rel = scheme.relation.copy()
    rel[x, y] = label
    return Scheme(scheme.space, scheme.label_space, rel)


def catalog_schemes():
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    return {
        "cyclic5": cyclic_scheme(5),
        "cyclic12": cyclic_scheme(12),
        "hamming32": hamming_scheme(3, 2),
        "hamming23": hamming_scheme(2, 3),
        "symmetric4": group_action_scheme(symmetric_group(4)),
        "dihedral6": group_action_scheme(dihedral_group(6)),
        "circle12": circle_scheme(12, 4, signed=False),
        "circle24": circle_scheme(24, 6),
        "sphere20": sphere_scheme(20, 4, seed=3),
        "sphere40": sphere_scheme(40, 5, seed=2),
        "octahedron": sphere_scheme(octahedron, 3),
        "delsarte3": delsarte_scheme(1.0 - np.eye(3)),
        "cyclic6_corrupt": corrupted(cyclic_scheme(6), 1, 3, 4),
        "cyclic6_diagonal": corrupted(cyclic_scheme(6), 2, 4, 0),
    }


CATALOG = catalog_schemes()


@pytest.mark.parametrize("tol", (0.0, 1e-9, 1.0))
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_indicator_bases_match_oracle(name, tol):
    scheme = CATALOG[name]
    basis = algebra_of_scheme(scheme).basis
    assert_partition_matches(basis, tol)
    assert_scheme_matches(basis, tol)
    assert_roundtrip_matches(scheme, tol)


def random_relabelled(seed):
    """A catalog scheme with its labels permuted (identity label too), so
    the label bijection of the round trip is not the identity."""
    rng = np.random.default_rng(seed)
    scheme = list(CATALOG.values())[seed % len(CATALOG)]
    L = scheme.label_count
    perm = rng.permutation(L)
    inv = np.empty(L, dtype=np.int64)
    inv[perm] = perm[scheme.label_space.involution]
    i0 = scheme.label_space.identity_label
    return Scheme(scheme.space,
                  LabelSpace(involution=inv, identity_label=int(perm[i0])),
                  perm[scheme.relation])


@pytest.mark.parametrize("seed", range(12))
def test_relabelled_roundtrip_matches_oracle(seed):
    assert_roundtrip_matches(random_relabelled(seed), 0.0)


def dense_twin(scheme):
    """The scheme's indicator basis given as dense kernels."""
    return AlgebraBasis(basis=tuple(
        Kernel((scheme.relation == k).astype(float), scheme.space)
        for k in range(scheme.label_count)))


def recovered_or_refusal(alg, tol):
    try:
        got = scheme_of_algebra(alg, tol)
    except (DiagonalContaminationError, InvolutionUndefinedError) as exc:
        return type(exc), str(exc)
    return (got.relation.tolist(), got.label_space.involution.tolist(),
            got.label_space.identity_label)


TWIN_SCHEMES = [pytest.param(lambda p=p: random_scheme(*p.values)[0],
                             id="random-" + p.id) for p in CASES]
TWIN_SCHEMES += [pytest.param(lambda name=name: CATALOG[name], id=name)
                 for name in CATALOG]


@pytest.mark.parametrize("tol", (0.0, 1e-9, 1.0))
@pytest.mark.parametrize("make", TWIN_SCHEMES)
def test_cell_partition_matches_dense_value_path(make, tol, monkeypatch):
    scheme = make()
    cells, dense = algebra_of_scheme(scheme), dense_twin(scheme)
    assert cells.cell_form and not dense.cell_form
    grouped, value_cells = [], correspondence._value_cells
    monkeypatch.setattr(correspondence, "_value_cells",
                        lambda basis: grouped.append(1) or value_cells(basis))
    got = character_partition(cells, tol)
    assert grouped == []
    want = character_partition(dense, tol)
    assert grouped == [1]
    assert got.cell_matrix.dtype == want.cell_matrix.dtype == np.int32
    assert np.array_equal(got.cell_matrix, want.cell_matrix)
    assert (got.representative_values.dtype
            == want.representative_values.dtype == complex)
    assert got.representative_values.shape == want.representative_values.shape
    assert (got.representative_values.tobytes()
            == want.representative_values.tobytes())
    assert (recovered_or_refusal(cells, tol)
            == recovered_or_refusal(dense, tol))
    assert_roundtrip_matches(scheme, tol)


@pytest.mark.parametrize("tol", (0.0, 1e-9, 1.0))
def test_cell_form_with_an_unused_cell_id_matches_its_dense_twin(tol):
    # ids 0..4 over cyclic5's relation shifted up by one: id 0 is unused,
    # so its member is the zero kernel
    scheme = CATALOG["cyclic5"]
    cells = AlgebraBasis(IndicatorKernels(scheme.relation + 1, scheme.space,
                                          scheme.label_count + 1))
    dense = AlgebraBasis(basis=tuple(cells.basis))
    got = character_partition(cells, tol)
    want = character_partition(dense, tol)
    assert np.array_equal(got.cell_matrix, want.cell_matrix)
    assert (got.representative_values.tobytes()
            == want.representative_values.tobytes())
    assert not got.representative_values[:, 0].any()


def test_cell_partition_refuses_tolerance_over_the_group_cap(monkeypatch):
    # circle24 has more labels than the cap, so both paths refuse alike
    scheme = CATALOG["circle24"]
    monkeypatch.setattr(correspondence, "_TOLERANCE_GROUP_CAP",
                        scheme.label_count - 1)
    messages = []
    for alg in (algebra_of_scheme(scheme), dense_twin(scheme)):
        with pytest.raises(correspondence.GroupingBudgetError) as err:
            character_partition(alg, 1e-9)
        messages.append(str(err.value))
        # tolerance 0 merges nothing, so the cap does not apply
        character_partition(alg, 0.0)
    assert messages[0] == messages[1]
    assert f"{scheme.label_count} exact groups" in messages[0]


@pytest.mark.parametrize("tol", (1e-12, 0.5, float(np.nextafter(1.0, 0.0))))
def test_cell_partition_below_tolerance_one_compares_no_groups(tol,
                                                               monkeypatch):
    # distinct identity rows are 1.0 apart, so below tolerance 1 nothing
    # merges: the partition is tolerance 0's, with no pairwise merge
    merges = []
    merge = correspondence._tolerance_components
    monkeypatch.setattr(correspondence, "_tolerance_components",
                        lambda *a: merges.append(1) or merge(*a))
    for scheme in CATALOG.values():
        alg = algebra_of_scheme(scheme)
        got, want = character_partition(alg, tol), character_partition(alg)
        assert np.array_equal(got.cell_matrix, want.cell_matrix)
        assert (got.representative_values.tobytes()
                == want.representative_values.tobytes())
    assert merges == []
    # tolerance 1 merges, and the dense twin compares at any tolerance
    character_partition(algebra_of_scheme(CATALOG["cyclic5"]), 1.0)
    character_partition(dense_twin(CATALOG["cyclic5"]), tol)
    assert merges == [1, 1]
    # the group cap is checked first
    monkeypatch.setattr(correspondence, "_TOLERANCE_GROUP_CAP", 4)
    with pytest.raises(correspondence.GroupingBudgetError,
                       match="5 exact groups"):
        character_partition(algebra_of_scheme(CATALOG["cyclic5"]), tol)


def test_roundtrip_check_builds_no_kernel(monkeypatch):
    built = []
    init = Kernel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "__init__", counting_init)
    for scheme in CATALOG.values():
        for tol in (0.0, 1e-9, 1.0):
            try:
                roundtrip_check(scheme, tol)
            except (DiagonalContaminationError, InvolutionUndefinedError):
                pass
    assert built == []
    # size, space and length read the cells alone
    alg = algebra_of_scheme(CATALOG["cyclic12"])
    assert alg.size == len(alg.basis) == 12
    assert alg.space is CATALOG["cyclic12"].space
    assert built == []
    # a kernel asked for is built once and kept
    K = alg.basis[3]
    assert alg.basis[3] is K and alg.basis[-9] is K and len(built) == 1
    assert np.array_equal(K.entries, CATALOG["cyclic12"].relation == 3)
