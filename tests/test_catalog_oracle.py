"""Differential tests of the catalog builders against loop oracles.

group_action_scheme finds orbitals by min-label propagation over the m**2
pairs, delsarte_scheme labels exact values with one np.unique, and
sphere_scheme and binned delsarte_scheme share one bincount binning. The
oracles below are the direct forms: a depth-first search from each point
and from each unlabelled pair in row-major order, an involution read pair
by pair, a dict from squared distance to label, and binning restricted to
the off-diagonal entries by a mask. Labels are integers, so every
relation, involution, bin_meta and error text must agree exactly.
"""

import numpy as np
import pytest

from casmat import (cyclic_group, delsarte_scheme, dihedral_group,
                    group_action_scheme, sphere_scheme, symmetric_group)


def oracle_orbitals(generators):
    """(relation, involution) of the orbital scheme, by depth-first search."""
    gens = [np.asarray(g, dtype=np.int64) for g in generators]
    m = gens[0].size
    reach = np.zeros(m, dtype=bool)
    stack = [0]
    reach[0] = True
    while stack:
        x = stack.pop()
        for g in gens:
            y = int(g[x])
            if not reach[y]:
                reach[y] = True
                stack.append(y)
    if not reach.all():
        raise ValueError("the generated group does not act transitively; "
                         f"orbit of 0 misses {np.nonzero(~reach)[0].tolist()}")
    labels = np.full((m, m), -1, dtype=np.int32)
    next_label = 0
    for x in range(m):
        for y in range(m):
            if labels[x, y] >= 0:
                continue
            lab = next_label
            next_label += 1
            stack = [(x, y)]
            labels[x, y] = lab
            while stack:
                a, b = stack.pop()
                for g in gens:
                    ga, gb = int(g[a]), int(g[b])
                    if labels[ga, gb] < 0:
                        labels[ga, gb] = lab
                        stack.append((ga, gb))
    inv = np.zeros(next_label, dtype=np.int64)
    seen = np.zeros(next_label, dtype=bool)
    for x in range(m):
        for y in range(m):
            lab = labels[x, y]
            if not seen[lab]:
                seen[lab] = True
                inv[lab] = labels[y, x]
    return labels, inv


def oracle_exact_labels(c):
    """Relation labelling each distinct off-diagonal value by its rank."""
    n = c.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    values = np.unique(c[off_diag])
    lookup = {v: 1 + i for i, v in enumerate(values)}
    rel = np.zeros((n, n), dtype=np.int32)
    rel[off_diag] = [lookup[v] for v in c[off_diag]]
    return rel, 1 + values.size


def oracle_binned(values, edges):
    """(relation, bin_meta) binning only the off-diagonal entries."""
    n = values.shape[0]
    n_bins = edges.size - 1
    binned = np.clip(np.digitize(values, edges) - 1, 0, n_bins - 1)
    off_diag = ~np.eye(n, dtype=bool)
    occupied = np.unique(binned[off_diag])
    remap = np.full(n_bins, -1, dtype=np.int32)
    remap[occupied] = 1 + np.arange(occupied.size)
    rel = np.zeros((n, n), dtype=np.int32)
    rel[off_diag] = remap[binned[off_diag]]
    bin_meta = tuple([None] + [(float(edges[b]), float(edges[b + 1]))
                               for b in occupied])
    return rel, bin_meta


def assert_same_orbitals(generators):
    try:
        expected = oracle_orbitals(generators)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            group_action_scheme(generators)
        assert str(err.value) == str(exc)
        return False
    scheme = group_action_scheme(generators)
    assert scheme.relation.dtype == np.int32
    assert np.array_equal(scheme.relation, expected[0])
    assert np.array_equal(scheme.label_space.involution, expected[1])
    return True


@pytest.mark.parametrize("group, m", [
    (group, m) for group in (symmetric_group, cyclic_group, dihedral_group)
    for m in range(3 if group is dihedral_group else 2, 11)])
def test_named_group_orbitals_match_oracle(group, m):
    assert assert_same_orbitals(group(m))


def random_generators(rng):
    """A few random permutations; half the time they keep the two halves
    of 0..m-1 apart, so the action is usually not transitive."""
    m = int(rng.integers(1, 13))
    count = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        return [rng.permutation(m) for _ in range(count)]
    half = max(1, m // 2)
    return [np.concatenate([rng.permutation(half),
                            half + rng.permutation(m - half)])
            for _ in range(count)]


def test_random_generator_sets_match_oracle():
    rng = np.random.default_rng(8)
    outcomes = [assert_same_orbitals(random_generators(rng))
                for _ in range(150)]
    # both the transitive and the refused branch were exercised
    assert any(outcomes) and not all(outcomes)


def random_metric(rng, n, integer):
    """Euclidean distances of n random plane points; integer points repeat
    distances (and sometimes points, which the builder refuses)."""
    pts = (rng.integers(0, 4, size=(n, 2)) if integer
           else rng.normal(size=(n, 2)))
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("n_bins", [None, 1, 2, 3, 7, 25])
@pytest.mark.parametrize("integer", [True, False])
def test_random_metrics_match_oracle(n_bins, integer):
    rng = np.random.default_rng(31 if integer else 32)
    for n in (1, 2, 3, 5, 9, 17):
        d = random_metric(rng, n, integer)
        zero = d == 0
        np.fill_diagonal(zero, False)
        if zero.any():
            with pytest.raises(ValueError, match="zero distance"):
                delsarte_scheme(d, n_bins=n_bins)
            continue
        scheme = delsarte_scheme(d, n_bins=n_bins)
        c = d * d
        if n_bins is None:
            rel, L = oracle_exact_labels(c)
            assert scheme.label_space.bin_meta is None
        else:
            rel, bin_meta = oracle_binned(
                c, np.linspace(0.0, float(c.max()), n_bins + 1))
            L = len(bin_meta)
            assert scheme.label_space.bin_meta == bin_meta
        assert scheme.relation.dtype == np.int32
        assert np.array_equal(scheme.relation, rel)
        assert np.array_equal(scheme.label_space.involution, np.arange(L))


def sphere_oracle(coords, n_bins):
    t = np.clip(coords @ coords.T, -1.0, 1.0)
    return oracle_binned(t, np.linspace(-1.0, 1.0, n_bins + 1))


@pytest.mark.parametrize("n_bins", [3, 4, 5, 9])
def test_sphere_whose_diagonal_bin_is_empty_matches_oracle(n_bins):
    # octahedron: <x, y> is 0 or -1 off the diagonal, so the last bin
    # holds only the diagonal's 1 and must not become a label
    coords = np.vstack([np.eye(3), -np.eye(3)])
    scheme = sphere_scheme(coords, n_bins)
    rel, bin_meta = sphere_oracle(coords, n_bins)
    assert np.array_equal(scheme.relation, rel)
    assert scheme.label_space.bin_meta == bin_meta
    assert bin_meta[-1][1] < 1.0


@pytest.mark.parametrize("n, n_bins", [(2, 2), (7, 3), (60, 5), (200, 40)])
def test_random_sphere_matches_oracle(n, n_bins):
    scheme = sphere_scheme(n, n_bins, seed=n)
    rel, bin_meta = sphere_oracle(scheme.space.coordinates, n_bins)
    assert np.array_equal(scheme.relation, rel)
    assert scheme.label_space.bin_meta == bin_meta
