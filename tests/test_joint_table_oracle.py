"""Differential tests of the CAS2 joint-table engine against a brute-force
oracle.

verify_cas, intersection_number, the indicator branch of
structure_constants and convolve_point_masses all reduce joint label
tables. The oracle below recomputes every quantity with pure-Python loops
over x, y and z on small random schemes: weighted, non-symmetric, and with
one relation entry corrupted. Integer weights make every sum exact, so the
results must agree bit for bit; other weights allow 1e-12, because a
fiber's mean may be summed in another pair order.
"""

import random

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, algebra_of_scheme,
                    convolve_point_masses, intersection_number,
                    kernel_of_scheme, make_quadrature, structure_constants,
                    verify_cas)

# label 0 is the diagonal, 1 and 2 are involution partners, 3 is symmetric
INVOLUTION = [0, 2, 1, 3]
L = len(INVOLUTION)
N = 7


def random_scheme(seed, integer_weights, corrupt):
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
    P = {}
    for x in range(N):
        for z in range(N):
            t = [[0.0] * L for _ in range(L)]
            for y in range(N):
                t[rel[x][y]][rel[y][z]] += w[y]
            P[x, z] = t
    return P


def oracle_fibers(rel):
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
        for y in range(N):
            if rel[x][y] in W and rel[y][z] in Wp:
                m += w[y]
        vals.append(m)
    return sum(vals) / len(vals), max(vals) - min(vals)


def oracle_convolution(rel, w, i, ip, max_reps=8):
    haar = sum(w[y] for y in range(N) if rel[0][y] == ip)
    reps = oracle_fibers(rel)[i][:max_reps]
    measures = []
    for x, z in reps:
        m = [0.0] * L
        for y in range(N):
            if rel[z][y] == ip:
                m[rel[x][y]] += w[y]
        measures.append([v / haar for v in m])
    mean = [sum(m[a] for m in measures) / len(measures) for a in range(L)]
    spread = max(max(m[a] for m in measures) - min(m[a] for m in measures)
                 for a in range(L))
    return mean, spread


def agree(got, want, exact):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if exact:
        assert np.array_equal(got, want), (got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12, (got, want)


CASES = [(seed, integer_weights, corrupt)
         for seed in range(4)
         for integer_weights in (True, False)
         for corrupt in (False, True)]


@pytest.mark.parametrize("seed,integer_weights,corrupt", CASES)
def test_verify_cas_matches_oracle(seed, integer_weights, corrupt):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt)
    rep = verify_cas(scheme, tolerance=0.0)
    assert rep.cas3_ok is not corrupt
    assert not rep.symmetric
    cas2, cas4, transpose = oracle_cas(rel, w, [(i,) for i in range(L)])
    assert rep.cas2_max_deviation == cas2
    agree(rep.cas4_max_deviation, cas4, integer_weights)
    agree(rep.involution_identity_max_deviation, transpose, integer_weights)


@pytest.mark.parametrize("seed,integer_weights,corrupt", CASES)
def test_verify_cas_projected_family_matches_oracle(seed, integer_weights,
                                                   corrupt):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt)
    family = [(1, 2), (3,), (0, 3), (1,)]
    rep = verify_cas(scheme, borel_family=family, tolerance=0.0)
    cas2, cas4, transpose = oracle_cas(rel, w, family)
    agree(rep.cas2_max_deviation, cas2, integer_weights)
    # a projected fiber mean sums rounded means: never bit-exact
    agree(rep.cas4_max_deviation, cas4, False)
    agree(rep.involution_identity_max_deviation, transpose, False)


@pytest.mark.parametrize("seed,integer_weights,corrupt", CASES)
def test_intersection_number_matches_oracle(seed, integer_weights, corrupt):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt)
    for W, Wp in [({1}, {2}), ({1, 2}, {3}), ({0, 1, 2, 3}, {2, 3})]:
        for k in range(L):
            got = intersection_number(scheme, W, Wp, k)
            agree(got, oracle_intersection(rel, w, W, Wp, k),
                  integer_weights)


@pytest.mark.parametrize("seed,integer_weights,corrupt", CASES)
def test_indicator_structure_constants_match_oracle(seed, integer_weights,
                                                    corrupt):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt)
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


@pytest.mark.parametrize("seed,integer_weights,corrupt", CASES)
def test_point_mass_convolution_matches_oracle(seed, integer_weights,
                                               corrupt):
    scheme, rel, w = random_scheme(seed, integer_weights, corrupt)
    hg = kernel_of_scheme(scheme, tolerance=np.inf)
    for i in range(L):
        for ip in range(L):
            for reps in (1, 8):
                got, spread = convolve_point_masses(hg, i, ip, max_reps=reps)
                want, want_spread = oracle_convolution(rel, w, i, ip, reps)
                agree(got, want, integer_weights)
                agree(spread, want_spread, integer_weights)
