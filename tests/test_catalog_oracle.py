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

from casmat import (Scheme, catalog, cyclic_group, delsarte_scheme,
                    dihedral_group, group_action_scheme, label_dtype,
                    sphere_scheme, symmetric_group)
from casmat import scheme as scheme_module


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
    assert scheme.relation.dtype == label_dtype(scheme.label_count)
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
        assert scheme.relation.dtype == label_dtype(L)
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


def adversarial_table(edges, rng, inside=False):
    """A square table holding every edge, its float neighbours on both
    sides, +-1.0, +-0.0 and the ends of the float range, off the diagonal
    and on it, in random order. inside keeps only values in
    [edges[0], edges[-1]), which repeated edges need: a value outside
    would fall into an empty end bin, which no label space holds."""
    values = np.concatenate([edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf),
                             [1.0, -1.0, 0.0, -0.0, -np.finfo(float).max,
                              np.finfo(float).max]])
    if inside:
        values = values[(edges[0] <= values) & (values < edges[-1])]
    n = next(m for m in range(2, values.size + 2) if m * m - m >= values.size)
    table = rng.choice(values, size=(n, n))
    off_diag = ~np.eye(n, dtype=bool)
    table[off_diag] = rng.permutation(np.resize(values, n * n - n))
    return table


def assert_binned_like_oracle(values, edges):
    expected_rel, expected_meta = oracle_binned(values, edges)
    rel, label_space, counts = catalog._binned_relation(values, edges)
    assert rel.dtype == label_dtype(label_space.size)
    assert np.array_equal(rel, expected_rel)
    assert label_space.bin_meta == expected_meta
    # the counts the builders hand to Scheme._adopt
    want = scheme_module._label_counts(rel, label_space.size)
    assert counts.dtype == want.dtype and np.array_equal(counts, want)


@pytest.mark.parametrize("build", [
    lambda: sphere_scheme(300, 20, seed=3),
    lambda: delsarte_scheme(np.abs(np.subtract.outer(np.arange(9.0),
                                                     np.arange(9.0))),
                            n_bins=4)], ids=["sphere", "delsarte-binned"])
def test_binned_builders_hand_over_their_counts(build, monkeypatch):
    want = build()
    own = Scheme(want.space, want.label_space, want.relation).fiber_counts

    def rescan(*args):
        raise AssertionError("the builder's relation was counted again")
    monkeypatch.setattr(scheme_module, "_label_counts", rescan)
    got = build()
    assert np.array_equal(got.relation, want.relation)
    assert got.fiber_counts.dtype == own.dtype
    assert np.array_equal(got.fiber_counts, own)


# a range a few ulps wide far from 0: its edges repeat, and the scale
# misplaces values by more than one bin
NARROW = (1.0, 1.0 + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("lo, hi, n_bins", [
    (-1.0, 1.0, 2), (-1.0, 1.0, 3), (-1.0, 1.0, 7), (-1.0, 1.0, 40),
    (-1.0, 1.0, 97),
    # Delsarte bins run over (0, max] with max near 1e-300 and 1e300
    (0.0, 1e-300, 1), (0.0, 1e-300, 3), (0.0, 3.7e-300, 25),
    (0.0, 1e300, 1), (0.0, 1e300, 3), (0.0, 1.7e300, 25)])
def test_adversarial_values_bin_like_oracle(lo, hi, n_bins):
    rng = np.random.default_rng(n_bins)
    edges = np.linspace(lo, hi, n_bins + 1)
    assert_binned_like_oracle(adversarial_table(edges, rng), edges)


@pytest.mark.parametrize("lo, hi, n_bins", [
    NARROW + (25,), NARROW + (7,),
    # a range too fine for its scale to be finite
    (0.0, 5e-324, 25)])
def test_repeated_edges_bin_like_oracle(lo, hi, n_bins):
    rng = np.random.default_rng(n_bins)
    edges = np.linspace(lo, hi, n_bins + 1)
    assert np.unique(edges).size < edges.size
    assert_binned_like_oracle(adversarial_table(edges, rng, inside=True),
                              edges)


def test_digitize_runs_only_where_the_scale_cannot_bin(monkeypatch):
    calls = []
    digitize = np.digitize

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return digitize(*args, **kwargs)

    rng = np.random.default_rng(4)
    sphere_edges = np.linspace(-1.0, 1.0, 41)
    narrow_edges = np.linspace(*NARROW, 26)
    sphere_table = adversarial_table(sphere_edges, rng)
    narrow_table = adversarial_table(narrow_edges, rng, inside=True)
    monkeypatch.setattr(np, "digitize", counted)
    sphere_scheme(200, 40, seed=3)
    catalog._binned_relation(sphere_table, sphere_edges)
    assert calls == []
    # repeated edges: the entries left out of bracket are digitized once
    catalog._binned_relation(narrow_table, narrow_edges)
    assert len(calls) == 1 and 0 < calls[0] <= narrow_table.size
    calls.clear()
    # a 1-node metric has no scale at all
    delsarte_scheme(np.zeros((1, 1)), n_bins=3)
    assert calls == [1]


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("n_bins", [1, 3, 25])
def test_delsarte_at_extreme_scales_matches_oracle(scale, n_bins):
    # squared distances near 1e-300 and 1e300
    rng = np.random.default_rng(n_bins)
    d = random_metric(rng, 17, integer=False) * scale
    scheme = delsarte_scheme(d, n_bins=n_bins)
    c = d * d
    rel, bin_meta = oracle_binned(
        c, np.linspace(0.0, float(c.max()), n_bins + 1))
    assert np.array_equal(scheme.relation, rel)
    assert scheme.label_space.bin_meta == bin_meta


@pytest.mark.parametrize("block", [1, 12, 20])
def test_binning_across_row_blocks_matches_oracle(block, monkeypatch):
    # blocks of one to a few rows; the NaN sends its block, and only
    # that block, through np.digitize
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(block)
    for lo, hi, n_bins in [(-1.0, 1.0, 7), (0.0, 1e300, 3), NARROW + (7,)]:
        edges = np.linspace(lo, hi, n_bins + 1)
        table = adversarial_table(edges, rng, inside=lo == NARROW[0])
        assert_binned_like_oracle(table, edges)
        table[table.shape[0] // 2, 0] = np.nan
        assert_binned_like_oracle(table, edges)
    # 300 labels of bins held in uint16, returned as uint8 when few are
    # occupied
    edges = np.linspace(-1.0, 1.0, 301)
    assert_binned_like_oracle(rng.uniform(-1.0, -0.9, size=(9, 9)), edges)
