import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from casmat import (LabelSpace, RepresentativeDependenceError, Scheme,
                    circle_scheme, convolve_functions, convolve_measure_point,
                    convolve_point_masses, cyclic_scheme, hamming_scheme,
                    kernel_of_scheme, make_quadrature, random_probe_pairs,
                    sphere_scheme, verify_strong_cas)
from casmat import hypergroup as hypergroup_module


def hamming_convolution_oracle(i, ip):
    """delta_i * delta_ip on H(3,2) by exact rational enumeration."""
    verts = list(product((0, 1), repeat=3))

    def dist(u, v):
        return sum(1 for a, b in zip(u, v) if a != b)

    x = verts[0]
    z = next(v for v in verts if dist(x, v) == i)
    members = [y for y in verts if dist(z, y) == ip]
    out = [Fraction(0)] * 4
    for y in members:
        out[dist(x, y)] += Fraction(1, len(members))
    return out


def test_cyclic_kernel_is_point_mass():
    hg = kernel_of_scheme(cyclic_scheme(5))
    for x in range(5):
        for i in range(5):
            vec = hg.kappa(x, i)
            assert vec.sum() == 1.0
            assert vec[(x + i) % 5] == 1.0


def test_kernel_at_identity_is_dirac():
    for scheme in (cyclic_scheme(6), hamming_scheme(2, 2)):
        hg = kernel_of_scheme(scheme)
        for x in range(scheme.space.node_count):
            vec = hg.kappa(x, 0)
            assert vec[x] == 1.0 and vec.sum() == 1.0


def test_hamming_kernel_uniform_over_neighbors():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    assert np.array_equal(hg.haar_weights, [1.0, 3.0, 3.0, 1.0])
    vec = hg.kappa(0, 1)
    support = np.nonzero(vec)[0]
    assert support.size == 3
    assert np.allclose(vec[support], 1.0 / 3.0, rtol=0, atol=1e-15)


def test_non_constant_row_masses_rejected():
    rel = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ls = LabelSpace(involution=np.arange(2), identity_label=0)
    scheme = Scheme(make_quadrature([1.0, 1.0, 2.0]), ls, rel)
    with pytest.raises(ValueError, match="invariant"):
        kernel_of_scheme(scheme)


def test_identity_point_mass_is_two_sided_unit():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    for i in range(4):
        delta = np.zeros(4)
        delta[i] = 1.0
        left, s1 = convolve_point_masses(hg, 0, i)
        right, s2 = convolve_point_masses(hg, i, 0)
        assert np.array_equal(left, delta)
        assert np.array_equal(right, delta)
        assert s1 == 0.0 and s2 == 0.0


def test_cyclic_convolution_is_group_addition():
    hg = kernel_of_scheme(cyclic_scheme(7))
    for i in range(7):
        for j in range(7):
            m, spread = convolve_point_masses(hg, i, j)
            expected = np.zeros(7)
            expected[(i + j) % 7] = 1.0
            assert np.array_equal(m, expected)
            assert spread == 0.0


def test_hamming_convolution_vs_rational_oracle():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    m, spread = convolve_point_masses(hg, 1, 1)
    oracle = hamming_convolution_oracle(1, 1)
    assert oracle == [Fraction(1, 3), Fraction(0), Fraction(2, 3), Fraction(0)]
    assert spread == 0.0
    assert np.abs(m - np.array([float(f) for f in oracle])).max() < 1e-15


def test_convolutions_are_probability_measures():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    for i in range(4):
        for j in range(4):
            m, _ = convolve_point_masses(hg, i, j)
            assert np.all(m >= 0)
            assert abs(m.sum() - 1.0) <= 1e-12


def test_point_mass_associativity_bilinear():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                ij, _ = convolve_point_masses(hg, i, j)
                left = convolve_measure_point(hg, ij, k)
                jk, _ = convolve_point_masses(hg, j, k)
                right = np.zeros(4)
                for lab in range(4):
                    if jk[lab] != 0:
                        m, _ = convolve_point_masses(hg, i, lab)
                        right += jk[lab] * m
                assert np.abs(left - right).max() <= 1e-10


def test_haar_left_invariance():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    L = hg.label_count
    profiles = []
    for j in range(L):
        acc = np.zeros(L)
        for i in range(L):
            m, _ = convolve_point_masses(hg, j, i)
            acc += hg.haar_weights[i] * m
        profiles.append(acc)
    profiles = np.array(profiles)
    assert np.abs(profiles - profiles[0]).max() <= 1e-12


def test_convolve_functions_identity_cases():
    hg = kernel_of_scheme(cyclic_scheme(6))
    L = 6
    rng = np.random.default_rng(4)
    g = rng.uniform(-1, 1, L)
    e0 = np.zeros(L)
    e0[0] = 1.0
    assert np.abs(convolve_functions(hg, e0, g) - g).max() <= 1e-14
    f = rng.uniform(-1, 1, L)
    got = convolve_functions(hg, f, e0)
    assert np.abs(got - f * hg.haar_weights[0]).max() <= 1e-14
    ones = np.ones(L)
    conv = convolve_functions(hg, ones, ones)
    assert np.abs(conv - hg.haar_weights.sum()).max() <= 1e-12


def test_symmetric_scheme_has_commutative_convolution():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    for i in range(4):
        for j in range(4):
            a, _ = convolve_point_masses(hg, i, j)
            b, _ = convolve_point_masses(hg, j, i)
            assert np.abs(a - b).max() <= 1e-14


def test_verify_strong_cas_hamming():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    probes = random_probe_pairs(4, 10, seed=9)
    report = verify_strong_cas(hg, probes, tolerance=1e-12,
                               declared_commutative=True)
    assert report.passed()
    assert report.residuals["identity_convolution"] == 0.0
    assert report.residuals["pullback_convolution"] <= 1e-12
    assert report.residuals["transport"] <= 1e-12
    assert report.residuals["anti_automorphism"] <= 1e-12
    assert report.residuals["commutativity_tv"] <= 1e-12
    assert report.residuals["cas4_deviation"] == 0.0


def test_verify_strong_cas_cyclic6_exact_composition():
    hg = kernel_of_scheme(cyclic_scheme(6))
    probes = random_probe_pairs(6, 5, seed=2)
    report = verify_strong_cas(hg, probes, tolerance=1e-12)
    assert report.passed()
    assert report.representative_spread == 0.0


def test_anti_automorphism_with_identity_label_is_exact():
    hg = kernel_of_scheme(cyclic_scheme(5))
    inv = hg.involution
    for i in range(5):
        m, _ = convolve_point_masses(hg, i, 0)
        lhs = m[inv]
        rhs, _ = convolve_point_masses(hg, int(inv[0]), int(inv[i]))
        assert np.array_equal(lhs, rhs)


def test_representative_dependence_detected_on_coarse_sphere():
    scheme = sphere_scheme(40, 4, seed=5)
    hg = kernel_of_scheme(scheme, tolerance=np.inf)
    with pytest.raises(RepresentativeDependenceError):
        worst = 0.0
        for i in range(1, scheme.label_count):
            for j in range(1, scheme.label_count):
                _, spread = convolve_point_masses(hg, i, j, tolerance=1e-12)
                worst = max(worst, spread)
        # a 40-node mesh cannot make every convolution representative
        # independent; if no pair raised, the mesh was accidentally exact
        raise AssertionError(f"no representative dependence found "
                             f"(worst spread {worst})")


@pytest.mark.parametrize("label", [-1, 4, 1.5])
def test_out_of_range_labels_are_refused(label):
    # hamming(3, 2) has 4 labels and 8 nodes: neither is wrapped around
    # or truncated
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    with pytest.raises(ValueError, match=f"unknown label {label}"):
        convolve_point_masses(hg, 1, label)
    with pytest.raises(ValueError, match=f"unknown label {label}"):
        convolve_point_masses(hg, label, 1)
    with pytest.raises(ValueError, match=f"unknown label {label}"):
        hg.kappa(0, label)
    with pytest.raises(ValueError, match=f"got {label} and shape"):
        convolve_measure_point(hg, np.ones(4), label)
    node = 8 if label == 4 else label
    with pytest.raises(ValueError, match=f"unknown node {node}"):
        hg.kappa(node, 1)


def test_verify_strong_cas_complex_probes_keep_imaginary_parts():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    real = random_probe_pairs(4, 6, seed=3)
    probes = [(f + 1j * g, g - 0.5j * f) for f, g in real]
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        report = verify_strong_cas(hg, probes, tolerance=1e-12,
                                   declared_commutative=True)
    assert report.passed()
    for name, value in report.residuals.items():
        assert value <= 1e-12, name


def per_label_measure_point(hg, mu, i_prime):
    """convolve_measure_point as one convolve_point_masses per label."""
    out = np.zeros(hg.label_count)
    for i in range(hg.label_count):
        if mu[i] != 0:
            m, _ = convolve_point_masses(hg, i, i_prime)
            out += mu[i] * m
    return out


@pytest.mark.parametrize("build", [lambda: hamming_scheme(3, 2),
                                   lambda: circle_scheme(24, 6),
                                   lambda: circle_scheme(30, 10, False)],
                         ids=["hamming32", "circle24", "circle30u"])
def test_measure_point_builds_one_row_per_label(build, monkeypatch):
    from casmat import hypergroup as hypergroup_module
    hg = kernel_of_scheme(build())
    L = hg.label_count
    rng = np.random.default_rng(L)
    mu = rng.uniform(-1.0, 1.0, L)
    mu[rng.permutation(L)[:L // 2]] = 0.0
    calls = []
    own = hypergroup_module._row

    def counted(hg, i, *args, **kwargs):
        calls.append(int(i))
        return own(hg, i, *args, **kwargs)
    for ip in range(L):
        want = per_label_measure_point(hg, mu, ip)
        calls.clear()
        monkeypatch.setattr(hypergroup_module, "_row", counted)
        got = convolve_measure_point(hg, mu, ip)
        monkeypatch.undo()
        assert calls == list(np.flatnonzero(mu))
        assert got.tobytes() == want.tobytes()


def test_measure_point_holds_one_row_at_a_time():
    hg = kernel_of_scheme(circle_scheme(240, 60))
    mu = np.ones(hg.label_count)
    tracemalloc.start()
    try:
        got = convolve_measure_point(hg, mu, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the support's rows side by side would be 240 * 240 * 240 * 8 B
    assert peak < 5 * 10**6
    assert got.tobytes() == per_label_measure_point(hg, mu, 3).tobytes()


@pytest.mark.parametrize("max_reps", [0, -1])
def test_point_masses_refuse_fewer_than_one_representative(max_reps,
                                                           monkeypatch):
    hg = kernel_of_scheme(hamming_scheme(3, 2))

    def no_work(*args, **kwargs):
        raise AssertionError("a refused call scanned a fiber")
    monkeypatch.setattr(hypergroup_module, "_fiber_scan", no_work)
    with pytest.raises(ValueError, match=f"max_reps must be at least 1, "
                                         f"got {max_reps}"):
        convolve_point_masses(hg, 1, 1, max_reps=max_reps)


def test_measure_point_refuses_bad_label_and_shape():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    with pytest.raises(ValueError, match=r"0\.\.3 .* got 4 and shape \(4,\)"):
        convolve_measure_point(hg, np.ones(4), 4)
    with pytest.raises(ValueError, match=r"got 0 and shape \(5,\)"):
        convolve_measure_point(hg, np.ones(5), 0)
