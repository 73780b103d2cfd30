"""Differential tests of the CAS2 joint-table engine against a brute-force
oracle.

verify_cas, intersection_number, the indicator branch of
structure_constants and convolve_point_masses all reduce joint label
tables. The oracle below recomputes every quantity with pure-Python loops
over x, y and z on small random schemes: weighted, non-symmetric, and with
one relation entry corrupted. Integer weights make every sum exact, so the
results must agree bit for bit; other weights allow 1e-12, because a
fiber's mean may be summed in another pair order.

Schemes come in two sizes, so the engine's table columns take both
rules: every cell where L * L <= n (N = 20), only the cells a chunk of
pairs touches otherwise (N = 7).
"""

import random

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, algebra_of_scheme, circle_scheme,
                    convolve_point_masses, intersection_number,
                    kernel_of_scheme, make_quadrature, structure_constants,
                    verify_cas)
from casmat import scheme as scheme_module
from casmat.scheme import (_label_map, _projected_pair_stats, _sample_fiber,
                           _table_reduction, joint_table)

# label 0 is the diagonal, 1 and 2 are involution partners, 3 is symmetric
INVOLUTION = [0, 2, 1, 3]
L = len(INVOLUTION)
SIZES = (7, 20)


def random_scheme(seed, integer_weights, corrupt, N=7):
    """A CAS3-consistent random relation on N nodes, optionally with one
    off-diagonal entry relabelled so that CAS3 fails there.

    Every row meets every label, so the Markov kernel is defined.
    """
    rng = random.Random(seed)
    while True:
        rel = [[0] * N for _ in range(N)]
        for x in range(N):
            for y in range(x + 1, N):
                a = rng.choice([1, 2, 3])
                rel[x][y], rel[y][x] = a, INVOLUTION[a]
        if corrupt:
            x, y = rng.sample(range(N), 2)
            rel[x][y] = rng.choice([a for a in (1, 2, 3) if a != rel[x][y]])
        if all(set(row) == set(range(L)) for row in rel):
            break
    if integer_weights:
        w = [float(rng.randint(1, 4)) for _ in range(N)]
    else:
        w = [rng.uniform(0.5, 2.0) for _ in range(N)]
    scheme = Scheme(make_quadrature(w),
                    LabelSpace(involution=np.array(INVOLUTION),
                               identity_label=0),
                    np.array(rel))
    return scheme, rel, w


def oracle_tables(rel, w):
    """P[x, z][i][j]: the mass of the y with rel[x][y] == i, rel[y][z] == j."""
    N = len(rel)
    P = {}
    for x in range(N):
        for z in range(N):
            t = [[0.0] * L for _ in range(L)]
            for y in range(N):
                t[rel[x][y]][rel[y][z]] += w[y]
            P[x, z] = t
    return P


def oracle_fibers(rel):
    N = len(rel)
    return {k: [(x, z) for x in range(N) for z in range(N) if rel[x][z] == k]
            for k in range(L)}


def oracle_cas(rel, w, family):
    """(CAS2, CAS4, fiber-transpose) deviations over full fibers."""
    P = oracle_tables(rel, w)
    fibers = oracle_fibers(rel)

    def project(t, W, Wp):
        return sum(t[i][j] for i in W for j in Wp)

    mean = {}
    cas2 = 0.0
    for k, pairs in fibers.items():
        mean[k] = [[sum(P[p][i][j] for p in pairs) / len(pairs)
                    for j in range(L)] for i in range(L)]
        for W in family:
            for Wp in family:
                vals = [project(P[p], W, Wp) for p in pairs]
                cas2 = max(cas2, max(vals) - min(vals))
    cas4 = transpose = 0.0
    for k in range(L):
        kt = INVOLUTION[k]
        for W in family:
            for Wp in family:
                v = project(mean[k], W, Wp)
                cas4 = max(cas4, abs(v - project(mean[k], Wp, W)))
                Wpt = [INVOLUTION[j] for j in Wp]
                Wt = [INVOLUTION[i] for i in W]
                transpose = max(transpose,
                                abs(v - project(mean[kt], Wpt, Wt)))
    return cas2, cas4, transpose


def oracle_intersection(rel, w, W, Wp, k):
    vals = []
    for x, z in oracle_fibers(rel)[k]:
        m = 0.0
        for y in range(len(rel)):
            if rel[x][y] in W and rel[y][z] in Wp:
                m += w[y]
        vals.append(m)
    return sum(vals) / len(vals), max(vals) - min(vals)


def oracle_convolution(rel, w, i, ip, max_reps=8):
    """delta_i * delta_ip off the first pair (x, z) of the fiber of i: the
    mass of the y with rel[x][y] == k and rel[y][z] == ip^T, over the
    haar weight of ip; and the spread of those masses over the first
    max_reps pairs, over the same weight."""
    N = len(rel)
    haar = sum(w[y] for y in range(N) if rel[0][y] == ip)
    masses = []
    for x, z in oracle_fibers(rel)[i][:max_reps]:
        m = [0.0] * L
        for y in range(N):
            if rel[y][z] == INVOLUTION[ip]:
                m[rel[x][y]] += w[y]
        masses.append(m)
    spread = max(max(m[k] for m in masses) - min(m[k] for m in masses)
                 for k in range(L))
    return [v / haar for v in masses[0]], spread / haar


def agree(got, want, exact):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if exact:
        assert np.array_equal(got, want), (got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12, (got, want)


CASES = [pytest.param(seed, integer_weights, corrupt, N,
                      id=f"{seed}-{integer_weights}-{corrupt}"
                      + ("" if N == 7 else f"-n{N}"))
         for seed in range(4)
         for integer_weights in (True, False)
         for corrupt in (False, True)
         for N in SIZES]


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_verify_cas_matches_oracle(seed, integer_weights, corrupt, N):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    rep = verify_cas(scheme, tolerance=0.0)
    assert rep.cas3_ok is not corrupt
    assert not rep.symmetric
    cas2, cas4, transpose = oracle_cas(rel, w, [(i,) for i in range(L)])
    assert rep.cas2_max_deviation == cas2
    agree(rep.cas4_max_deviation, cas4, integer_weights)
    agree(rep.involution_identity_max_deviation, transpose, integer_weights)


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_verify_cas_projected_family_matches_oracle(seed, integer_weights,
                                                   corrupt, N):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    # overlapping sets, disjoint sets, disjoint sets that miss a label,
    # disjoint sets that the involution does not map onto the family
    for family in ([(1, 2), (3,), (0, 3), (1,)], [(1, 2), (3,), (0,)],
                   [(3,), (1, 2)], [(2,), (1, 3)]):
        rep = verify_cas(scheme, borel_family=family, tolerance=0.0)
        cas2, cas4, transpose = oracle_cas(rel, w, family)
        agree(rep.cas2_max_deviation, cas2, integer_weights)
        # a projected fiber mean sums rounded means: never bit-exact
        agree(rep.cas4_max_deviation, cas4, False)
        agree(rep.involution_identity_max_deviation, transpose, False)


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_intersection_number_matches_oracle(seed, integer_weights, corrupt, N):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    for W, Wp in [({1}, {2}), ({1, 2}, {3}), ({0, 1, 2, 3}, {2, 3})]:
        for k in range(L):
            got = intersection_number(scheme, W, Wp, k)
            # each pair's value sums in increasing y, the mean in pair
            # order, as the oracle does: exact for any weights
            agree(got, oracle_intersection(rel, w, W, Wp, k), True)


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_indicator_structure_constants_match_oracle(seed, integer_weights,
                                                    corrupt, N):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    tensor, residual = structure_constants(algebra_of_scheme(scheme))
    P = oracle_tables(rel, w)
    want = np.zeros((L, L, L))
    worst = 0.0
    for k, pairs in oracle_fibers(rel).items():
        first = P[pairs[0]]
        want[:, :, k] = first
        for p in pairs:
            for i in range(L):
                for j in range(L):
                    worst = max(worst, abs(P[p][i][j] - first[i][j]))
    assert np.array_equal(tensor.imag, np.zeros_like(want))
    agree(tensor.real, want, integer_weights)
    agree(residual, worst, integer_weights)


@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_point_mass_convolution_matches_oracle(seed, integer_weights,
                                               corrupt, N):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt, N)
    hg = kernel_of_scheme(scheme, tolerance=np.inf)
    for i in range(L):
        for ip in range(L):
            for reps in (1, 8):
                got, spread = convolve_point_masses(hg, i, ip, max_reps=reps)
                want, want_spread = oracle_convolution(rel, w, i, ip, reps)
                agree(got, want, integer_weights)
                agree(spread, want_spread, integer_weights)


def reference_pair_stats(rel, w, L, xs, zs, A=None):
    """The per-pair loop: one table per pair, summed in pair order. A
    projection by disjoint label sets, the rows of A, maps each label to
    its set (the rest to one more) and sums each cell in increasing y."""
    values = []
    total = np.zeros((L, L))
    if A is not None:
        index = np.array([A[:, i].argmax() if A[:, i].any() else len(A)
                          for i in range(L)])
    for x, z in zip(xs, zs):
        h = joint_table(rel[x], rel[:, z], w, L)
        total += h
        if A is None:
            values.append(h)
        else:
            values.append(joint_table(index[rel[x]], index[rel[:, z]], w,
                                      len(A) + 1)[:len(A), :len(A)])
    return total, np.min(values, axis=0), np.max(values, axis=0)


@pytest.mark.parametrize("chunk", [64, 1, None])
@pytest.mark.parametrize("N", SIZES)
def test_table_reduction_matches_loop_across_chunks(N, chunk, monkeypatch):
    # float weights: any change in summation order shows in the last bits
    if chunk is not None:
        # a chunk of 64 entries holds 3 or 4 pairs, a chunk of 1 one pair
        monkeypatch.setattr(scheme_module, "_CHUNK_ENTRIES", chunk)
    scheme, _, _ = random_scheme(5, False, True, N)
    rel, w = scheme.relation, scheme.space.weights
    rng = np.random.default_rng(N)
    xs, zs = rng.integers(0, N, 300), rng.integers(0, N, 300)
    got = _table_reduction(rel, w, xs, zs, L)
    want = reference_pair_stats(rel, w, L, xs, zs)
    for g, e in zip(got, want):
        assert np.array_equal(g, e), (g, e)
    # the first pair's table, bit for bit as joint_table builds it
    first = joint_table(rel[xs[0]], rel[:, zs[0]], w, L)
    assert got[3].shape == first.shape and got[3].tobytes() == first.tobytes()
    # verify_cas's disjoint route: raw sums, lo and hi of the mapped
    # tables without the row and column of the labels in no set
    partition = np.array([[0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)
    index = _label_map([(1, 2), (3,)], L)
    _, lo, hi, _ = _table_reduction(rel, w, xs, zs, 3, index, index)
    want = reference_pair_stats(rel, w, L, xs, zs, partition)
    for g, e in zip((got[0], lo[:2, :2], hi[:2, :2]), want):
        assert np.array_equal(g, e), (g, e)


@pytest.mark.parametrize("N", SIZES)
def test_projected_pair_stats_matches_loop(N):
    # overlapping sets: every pair's table projected densely, the first
    # pair included, also when it is the only one
    scheme, _, _ = random_scheme(5, False, True, N)
    rel, w = scheme.relation, scheme.space.weights
    rng = np.random.default_rng(N)
    xs, zs = rng.integers(0, N, 300), rng.integers(0, N, 300)
    M = np.array([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=float)
    for pairs in (1, 2, 300):
        got = _projected_pair_stats(rel, w, L, xs[:pairs], zs[:pairs], M)
        values = [M @ joint_table(rel[x], rel[:, z], w, L) @ M.T
                  for x, z in zip(xs[:pairs], zs[:pairs])]
        want = (reference_pair_stats(rel, w, L, xs[:pairs], zs[:pairs])[0],
                np.min(values, axis=0), np.max(values, axis=0))
        for g, e in zip(got, want):
            assert np.array_equal(g, e), (g, e)


def test_verify_cas_fixes_the_family_route_once(monkeypatch):
    # circle(120, 30) bins: 30 disjoint sets, 120 fibers
    calls = {"_label_map": 0, "joint_table": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(scheme_module, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(scheme_module, name, counted)
    verify_cas(circle_scheme(120, 30), borel_family="bins")
    assert calls == {"_label_map": 1, "joint_table": 0}


def reference_sample(scheme, k, max_pairs, rng):
    """Sampling from the full fiber scan: np.nonzero, rng.choice, then the
    swap-closure of self-paired labels."""
    rel = scheme.relation
    xs, zs = np.nonzero(rel == k)
    if max_pairs is None or xs.size <= max_pairs:
        return xs, zs, False
    idx = rng.choice(xs.size, size=max_pairs, replace=False)
    sx, sz = xs[idx], zs[idx]
    if INVOLUTION[k] == k:
        n = len(rel)
        keys = np.unique(np.concatenate([sx * n + sz, sz * n + sx]))
        sx, sz = keys // n, keys % n
        inside = rel[sx, sz] == k
        sx, sz = sx[inside], sz[inside]
    return sx, sz, True


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("seed", range(3))
def test_sample_fiber_draws_the_reference_pairs(seed, N):
    # labels 1 and 2 are partners, 0 and 3 self-paired; one generator runs
    # through every label, so later fibers must draw the same pairs too
    scheme, _, _ = random_scheme(seed, True, False, N)
    for max_pairs in (1, 3, 10, None):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        for k in (1, 3, 2, 0, 3):
            got = _sample_fiber(scheme, k, max_pairs, rng)
            want = reference_sample(scheme, k, max_pairs, ref_rng)
            assert got[2] == want[2]
            for g, e in zip(got[:2], want[:2]):
                assert g.dtype == e.dtype and np.array_equal(g, e)
        assert rng.random() == ref_rng.random()


def test_fiber_transpose_checks_both_labels_of_an_orbit():
    # labels 1 and 2 are partners; the family is not closed under the
    # involution, so checking from label 1 alone misses the worst case
    scheme, rel, w = random_scheme(1, True, True)
    family = [(2,), (1, 3)]
    rep = verify_cas(scheme, borel_family=family, tolerance=0.0)
    transpose = oracle_cas(rel, w, family)[2]
    assert round(transpose, 3) == 0.771
    agree(rep.involution_identity_max_deviation, transpose, False)


def test_one_column_tables_sum_in_pair_order():
    # with one label each table is one cell, which numpy's axis-0 sum
    # would add pairwise: the raw tables (K = 1 <= n) and the two-set
    # tables of intersection_number (K * K = 4 > n) keep pair order
    w = np.random.default_rng(0).uniform(0.5, 2.0, 3)
    rel = np.zeros((3, 3), dtype=np.uint8)
    xs, zs = np.nonzero(rel == 0)
    got = _table_reduction(rel, w, xs, zs, 1)
    want = reference_pair_stats(rel, w, 1, xs, zs)
    for g, e in zip(got, want):
        assert np.array_equal(g, e), (g, e)
    scheme = Scheme(make_quadrature(w),
                    LabelSpace(involution=np.array([0]), identity_label=0),
                    rel)
    mean = float(want[0][0, 0] / 9)
    assert intersection_number(scheme, [0], [0], 0) == (mean, 0.0)
