import numpy as np
import pytest

from casmat import (circle_scheme, cyclic_group, cyclic_scheme,
                    delsarte_scheme, dihedral_group, group_action_scheme,
                    hamming_scheme, materialize_recipe, sphere_scheme,
                    symmetric_group, verify_cas)


def test_cyclic_2_is_symmetric():
    s = cyclic_scheme(2)
    assert s.label_count == 2
    assert s.label_space.is_symmetric()


def test_cyclic_5_commutative_not_symmetric():
    rep = verify_cas(cyclic_scheme(5), tolerance=0.0)
    assert rep.passed() and rep.commutative and not rep.symmetric


def test_cyclic_rejects_small_n():
    with pytest.raises(ValueError):
        cyclic_scheme(1)


def test_hamming_labels_and_symmetry():
    s = hamming_scheme(3, 2)
    assert s.label_count == 4
    assert s.label_space.is_symmetric()
    assert verify_cas(s, tolerance=0.0).passed()


def test_hamming_cap_rejected():
    with pytest.raises(ValueError, match="cap"):
        hamming_scheme(13, 2)


def test_symmetric_group_gives_complete_graph_scheme():
    for m in (3, 4, 5):
        s = group_action_scheme(symmetric_group(m))
        assert s.label_count == 2
        assert verify_cas(s, tolerance=0.0).passed()


def test_cyclic_shift_orbits_equal_translation_classes():
    g = group_action_scheme(cyclic_group(6))
    c = cyclic_scheme(6)
    assert np.array_equal(g.relation, c.relation)
    assert np.array_equal(g.label_space.involution, c.label_space.involution)


def test_dihedral_merges_opposite_translations():
    m = 7
    s = group_action_scheme(dihedral_group(m))
    assert s.label_count == 1 + (m - 1) // 2 + (1 if m % 2 == 0 else 0)
    assert s.label_space.is_symmetric()
    assert verify_cas(s, tolerance=0.0).passed()


def test_group_action_outputs_pass_verification_exactly():
    for gens in (symmetric_group(4), cyclic_group(5), dihedral_group(6)):
        rep = verify_cas(group_action_scheme(gens), tolerance=0.0)
        assert rep.passed()
        assert rep.cas2_max_deviation == 0.0


def test_intransitive_action_rejected():
    with pytest.raises(ValueError, match="transitive"):
        group_action_scheme([[1, 0, 3, 2]])


def test_bad_generator_rejected():
    with pytest.raises(ValueError, match="permutation"):
        group_action_scheme([[0, 0, 1]])


def test_circle_matches_cyclic_partition():
    c = circle_scheme(8, 8, signed=True)
    z = cyclic_scheme(8)
    assert np.array_equal(c.relation, z.relation)
    assert np.array_equal(c.label_space.involution, z.label_space.involution)
    assert np.allclose(c.space.weights, 2 * np.pi / 8, rtol=0, atol=0)


def test_circle_divisibility_required():
    with pytest.raises(ValueError, match="divide"):
        circle_scheme(10, 3)


def test_unsigned_circle_is_symmetric():
    s = circle_scheme(24, 6, signed=False)
    assert s.label_space.is_symmetric()
    rep = verify_cas(s, tolerance=1e-12)
    assert rep.passed()
    assert rep.symmetric and rep.commutative
    assert rep.cas2_max_deviation == 0.0


def test_signed_circle_small_grid_exact():
    rep = verify_cas(circle_scheme(24, 6, signed=True), tolerance=1e-12)
    assert rep.passed()
    assert rep.cas2_max_deviation == 0.0
    assert rep.row_valency_max_deviation == 0.0


def test_circle_stores_generating_bin_family():
    s = circle_scheme(24, 6, signed=True)
    assert s.borel_bins is not None and len(s.borel_bins) == 6
    covered = sorted(i for W in s.borel_bins for i in W)
    assert covered == list(range(24))
    rep = verify_cas(s, borel_family="bins", tolerance=1e-12)
    assert rep.passed()


def test_octahedron_sphere_labels():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    s = sphere_scheme(nodes, 4)
    # inner products take values {1 (diagonal), -1, 0}
    assert s.label_count == 3
    assert s.label_space.is_symmetric()
    rep = verify_cas(s, tolerance=1e-12)
    assert rep.passed()


def test_sphere_rejects_non_unit_vectors():
    nodes = np.array([[1, 0, 0], [0, 2, 0]], dtype=float)
    with pytest.raises(ValueError, match="unit"):
        sphere_scheme(nodes, 4)


def test_sphere_fixed_seed_is_reproducible():
    a = sphere_scheme(50, 6, seed=123)
    b = sphere_scheme(50, 6, seed=123)
    assert np.array_equal(a.relation, b.relation)
    assert np.array_equal(np.asarray(a.space.coordinates),
                          np.asarray(b.space.coordinates))


def test_sphere_diagonal_has_dedicated_label():
    s = sphere_scheme(30, 5, seed=1)
    assert s.label_space.identity_label == 0
    assert np.all(s.relation.diagonal() == 0)
    off = s.relation[~np.eye(30, dtype=bool)]
    assert np.all(off != 0)


def test_delsarte_two_point_space():
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = delsarte_scheme(metric)
    assert s.label_count == 2
    assert verify_cas(s, tolerance=0.0).passed()


def test_delsarte_from_cube_distance_is_hamming():
    h = hamming_scheme(3, 2)
    words = np.asarray(h.space.coordinates)
    dist = (words[:, None, :] != words[None, :, :]).sum(axis=2).astype(float)
    s = delsarte_scheme(dist)
    assert np.array_equal(s.relation, h.relation)
    assert s.label_space.is_symmetric()


def test_delsarte_metric_violations_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        delsarte_scheme(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="must be 0"):
        delsarte_scheme(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero distance"):
        delsarte_scheme(np.array([[0.0, 0.0], [0.0, 0.0]]))


def _partitions_agree(rel_a, rel_b):
    mapping = {}
    for a, b in zip(rel_a.ravel(), rel_b.ravel()):
        if a in mapping and mapping[a] != b:
            return False
        mapping[a] = b
    return len(set(mapping.values())) == len(mapping)


def test_delsarte_chordal_exact_values_match_sphere_octahedron():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    s = sphere_scheme(nodes, 4)
    diff = nodes[:, None, :] - nodes[None, :, :]
    chordal = np.sqrt((diff ** 2).sum(axis=2))
    d = delsarte_scheme(chordal, weights=s.space.weights)
    assert _partitions_agree(s.relation, d.relation)


def test_delsarte_chordal_bins_match_sphere_partition():
    # chordal distance squared is an affine function of the inner
    # product; an exact antipodal pair pins max d^2 to 4 so equal-width
    # bins over [0, max] line up with the inner-product bins over [-1, 1]
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(58, 3))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    coords = np.vstack([coords, [[0, 0, 1], [0, 0, -1]]])
    s = sphere_scheme(coords, 10)
    diff = coords[:, None, :] - coords[None, :, :]
    chordal = np.sqrt((diff ** 2).sum(axis=2))
    d = delsarte_scheme(chordal, weights=s.space.weights, n_bins=10)
    assert _partitions_agree(s.relation, d.relation)


def test_materialize_recipes():
    s, recipe = materialize_recipe("cyclic n=12")
    assert s.label_count == 12 and recipe == "cyclic n=12"
    s, _ = materialize_recipe("hamming d=3 q=2")
    assert s.label_count == 4
    s, _ = materialize_recipe("group generators=1,0,2,3;1,2,3,0")
    assert s.label_count == 2
    s, _ = materialize_recipe("circle nodes=24 bins=6 signed=true")
    assert s.label_count == 24
    s, _ = materialize_recipe("sphere nodes=40 bins=5 seed=2")
    assert s.space.node_count == 40
    with pytest.raises(ValueError, match="unknown recipe"):
        materialize_recipe("klein bottles=2")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sphere_rejects_non_finite_nodes(bad):
    nodes = np.vstack([np.eye(3), -np.eye(3)])
    nodes[4, 2] = bad
    with pytest.raises(ValueError,
                       match=r"node 4 is not a unit vector \(\|norm - 1\| = "
                             r"(nan|inf)\)"):
        sphere_scheme(nodes, 3)
