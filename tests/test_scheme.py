import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat import scheme as scheme_module
from casmat import (LabelSpace, Scheme, SurjectivityError, algebra_of_scheme,
                    build_approximate_identity, check_approximate_identity,
                    circle_scheme, convolve_point_masses, cyclic_scheme,
                    default_probes, diagonal_kernel, fiber, hamming_scheme,
                    indicator_bump, intersection_number, kernel_of_scheme,
                    make_quadrature, random_probe_pairs, read_scheme,
                    roundtrip_check, sphere_scheme, verify_bma, verify_cas,
                    verify_strong_cas, write_scheme)
from casmat.errors import ParseError


def brute_force_intersection(scheme, W, Wp, k):
    """Independent oracle: pure-python loops over the full fiber."""
    rel = scheme.relation
    w = scheme.space.weights
    n = scheme.space.node_count
    values = []
    for x in range(n):
        for z in range(n):
            if rel[x, z] != k:
                continue
            m = 0.0
            for y in range(n):
                if rel[x, y] in W and rel[y, z] in Wp:
                    m += w[y]
            values.append(m)
    return values


# --- LabelSpace and Scheme validation


def test_label_space_requires_involutive_bijection():
    with pytest.raises(ValueError, match="involutive"):
        LabelSpace(involution=np.array([1, 2, 0]))


def test_label_space_identity_must_be_fixed():
    with pytest.raises(ValueError, match="fix"):
        LabelSpace(involution=np.array([1, 0]), identity_label=0)


def test_label_space_bins_must_be_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        LabelSpace(involution=np.array([0, 1]),
                   bin_meta=((0.0, 1.0), (0.5, 2.0)))


def test_scheme_requires_surjective_relation():
    space = make_quadrature(np.ones(3))
    ls = LabelSpace(involution=np.arange(3), identity_label=0)
    rel = np.zeros((3, 3), dtype=int)
    rel[0, 1] = rel[1, 0] = 1
    rel[0, 2] = rel[2, 0] = 1
    rel[1, 2] = rel[2, 1] = 1
    with pytest.raises(SurjectivityError):
        Scheme(space, ls, rel)


def test_scheme_rejects_out_of_range_labels():
    space = make_quadrature(np.ones(2))
    ls = LabelSpace(involution=np.arange(2), identity_label=0)
    with pytest.raises(ValueError, match="0..label_count"):
        Scheme(space, ls, np.array([[0, 5], [5, 0]]))


# --- fibers


def test_identity_fiber_is_diagonal():
    s = cyclic_scheme(7)
    xs, ys = fiber(s, 0)
    assert np.array_equal(xs, ys)
    assert xs.size == 7


def test_cyclic_fiber_is_translation_orbit():
    s = cyclic_scheme(5)
    xs, ys = fiber(s, 2)
    assert xs.size == 5
    assert np.all((ys - xs) % 5 == 2)


def test_fiber_of_involution_partner_is_transposed():
    s = cyclic_scheme(6)
    for i in range(6):
        xs, ys = fiber(s, i)
        xt, yt = fiber(s, int(s.label_space.involution[i]))
        assert set(zip(xt.tolist(), yt.tolist())) == \
            set(zip(ys.tolist(), xs.tolist()))


def test_fiber_unknown_label():
    s = cyclic_scheme(4)
    with pytest.raises(ValueError, match="unknown"):
        fiber(s, 9)


# --- intersection numbers


def test_cyclic_intersection_number():
    s = cyclic_scheme(5)
    value, dev = intersection_number(s, {1}, {2}, 3)
    assert value == 1.0 and dev == 0.0


def test_hamming_intersection_number_vs_oracle():
    s = hamming_scheme(3, 2)
    values = brute_force_intersection(s, {1}, {1}, 2)
    assert set(values) == {2.0}
    value, dev = intersection_number(s, {1}, {1}, 2)
    assert value == 2.0 and dev == 0.0


def test_full_label_sets_give_total_mass():
    s = hamming_scheme(2, 3)
    all_labels = set(range(s.label_count))
    for k in range(s.label_count):
        value, dev = intersection_number(s, all_labels, all_labels, k)
        assert value == s.space.total_mass
        assert dev == 0.0


def test_intersection_number_additive_in_first_set():
    s = hamming_scheme(3, 2)
    v01, _ = intersection_number(s, {0, 1}, {2}, 1)
    v0, _ = intersection_number(s, {0}, {2}, 1)
    v1, _ = intersection_number(s, {1}, {2}, 1)
    assert v01 == v0 + v1


# --- verify_cas


def test_verify_cyclic_12():
    rep = verify_cas(cyclic_scheme(12), tolerance=0.0)
    assert rep.passed()
    assert rep.cas2_max_deviation == 0.0
    assert rep.cas4_max_deviation == 0.0
    assert not rep.symmetric
    assert rep.commutative


def test_verify_hamming_32():
    rep = verify_cas(hamming_scheme(3, 2), tolerance=0.0)
    assert rep.passed()
    assert rep.symmetric and rep.commutative
    assert rep.cas2_max_deviation == 0.0


def test_verify_cyclic_against_brute_force_oracle():
    s = cyclic_scheme(6)
    for (W, Wp, k) in [({1}, {2}, 3), ({2}, {5}, 1), ({0}, {4}, 4)]:
        values = brute_force_intersection(s, W, Wp, k)
        assert max(values) - min(values) == 0.0
        value, dev = intersection_number(s, W, Wp, k)
        assert value == values[0]
        assert dev == 0.0


def test_random_relabeling_fails_with_witness():
    rng = np.random.default_rng(2024)
    n = 8
    rel = rng.integers(1, 4, size=(n, n))
    np.fill_diagonal(rel, 0)
    ls = LabelSpace(involution=np.arange(4), identity_label=0)
    bad = Scheme(make_quadrature(np.ones(n)), ls, rel)
    rep = verify_cas(bad, tolerance=0.0)
    assert not rep.passed()
    assert (not rep.cas3_ok) or rep.cas2_max_deviation > 0
    assert "cas3" in rep.witnesses or "cas2" in rep.witnesses


def test_row_masses_sum_to_total_exactly():
    for s in (cyclic_scheme(9), hamming_scheme(2, 3)):
        rel = s.relation
        w = s.space.weights
        for x in range(s.space.node_count):
            masses = np.bincount(rel[x], weights=w, minlength=s.label_count)
            assert masses.sum() == s.space.total_mass


def test_symmetric_implies_cas4_within_twice_cas2():
    rep = verify_cas(hamming_scheme(3, 2), tolerance=0.0)
    assert rep.symmetric
    assert rep.cas4_max_deviation <= 2 * rep.cas2_max_deviation


def test_sampled_verification_stays_exact_on_finite_scheme():
    rep = verify_cas(hamming_scheme(3, 2), tolerance=0.0,
                     max_pairs_per_fiber=5, seed=3)
    assert rep.sampled
    assert rep.cas2_max_deviation == 0.0
    assert rep.cas4_max_deviation == 0.0


def test_diagonal_slack_admits_near_diagonal_pairs():
    # relation whose identity fiber contains one off-diagonal pair
    n = 4
    rel = np.ones((n, n), dtype=int)
    np.fill_diagonal(rel, 0)
    rel[0, 1] = rel[1, 0] = 0
    ls = LabelSpace(involution=np.arange(2), identity_label=0)
    s = Scheme(make_quadrature(np.ones(n)), ls, rel)
    strict = verify_cas(s, tolerance=10.0)
    assert not strict.cas1_ok
    slack = verify_cas(s, tolerance=10.0, diagonal_slack=2)
    assert slack.cas1_ok


def test_cas1_names_both_faults_in_row_major_order():
    # three diagonal entries that are not the identity and as many
    # identity entries off the diagonal: the identity's fiber count equals
    # n, so only the diagonal's shortfall shows the off-diagonal pairs
    base = cyclic_scheme(8)
    rel = base.relation.copy()
    for x, label in [(7, 3), (2, 4), (5, 1)]:
        rel[x, x] = label
    for x, y in [(6, 4), (0, 3), (4, 6)]:
        rel[x, y] = 0
    scheme = Scheme(base.space, base.label_space, rel)
    assert scheme.fiber_counts[0] == 8
    for slack in (0, 3):
        rep = verify_cas(scheme, diagonal_slack=slack)
        assert not rep.cas1_ok
        assert rep.witnesses["cas1"] == [
            {"pair": (2, 2), "label": 4}, {"pair": (5, 5), "label": 1},
            {"pair": (7, 7), "label": 3}, {"pair": (0, 3), "label": 0},
            {"pair": (4, 6), "label": 0}, {"pair": (6, 4), "label": 0}]


def test_pairs_family_includes_singletons():
    rep = verify_cas(cyclic_scheme(5), borel_family="pairs", tolerance=0.0)
    assert rep.passed()
    assert "pairs" in rep.borel_family_descriptor


# --- scheme file format


def test_scheme_file_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    s = hamming_scheme(2, 2)
    # replace counting weights by irregular ones to exercise float repr
    space = make_quadrature(rng.uniform(0.3, 2.1, 4))
    s = Scheme(space, s.label_space, s.relation)
    p1, p2 = tmp_path / "a.scheme", tmp_path / "b.scheme"
    write_scheme(s, p1, recipe="test d=2 q=2")
    back = read_scheme(p1)
    assert np.array_equal(back.relation, s.relation)
    assert np.array_equal(back.space.weights, s.space.weights)
    assert np.array_equal(back.label_space.involution,
                          s.label_space.involution)
    write_scheme(back, p2, recipe="test d=2 q=2")
    assert p1.read_bytes() == p2.read_bytes()


def test_scheme_file_preserves_bins_and_meta(tmp_path):
    from casmat import circle_scheme
    s = circle_scheme(12, 4, signed=True)
    path = tmp_path / "c.scheme"
    write_scheme(s, path)
    back = read_scheme(path)
    assert back.label_space.bin_meta == s.label_space.bin_meta
    assert back.borel_bins == s.borel_bins
    rep = verify_cas(back, tolerance=1e-12)
    assert rep.passed()


def test_scheme_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.scheme"
    path.write_text("#casmat-scheme v1\nnodes 2\nweights\n1.0 oops\n")
    with pytest.raises(ParseError, match="line 4"):
        read_scheme(path)


def test_scheme_bad_header(tmp_path):
    path = tmp_path / "bad.scheme"
    path.write_text("#nope\n")
    with pytest.raises(ParseError, match="line 1"):
        read_scheme(path)


def test_scheme_duplicate_label_record_is_rejected(tmp_path):
    # the missing label's record would otherwise default to partner 0
    path = tmp_path / "dup.scheme"
    write_scheme(hamming_scheme(2, 2), path)
    text = path.read_text()
    assert "\n0 0\n1 1\n" in text
    path.write_text(text.replace("\n0 0\n1 1\n", "\n1 1\n1 1\n"))
    with pytest.raises(ParseError, match="line 7: duplicate record for "
                                         "label 1"):
        read_scheme(path)


# --- relation block: byte parse, row-loop errors

def _cyclic5_lines():
    """cyclic(5) as scheme-file lines and the index of relation row 0."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c5.scheme"
        write_scheme(cyclic_scheme(5), path)
        lines = path.read_text().split("\n")
    return lines, lines.index("relation") + 1


def _read_lines(lines):
    """read_scheme of the lines: ("ok", relation) or (error, text, line)."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.scheme"
        path.write_text("\n".join(lines))
        try:
            s = read_scheme(path)
        except ParseError as exc:
            return "ParseError", str(exc), exc.line
    return "ok", s.relation.dtype, s.relation.tolist()


def _row_loop_read(lines):
    """The same read with the byte parse switched off."""
    with mock.patch.object(scheme_module, "_load_relation_rows",
                           return_value=None):
        return _read_lines(lines)


def _edit_row(r, old, new):
    def edit(rows):
        rows = list(rows)
        rows[r] = rows[r].replace(old, new, 1)
        return rows
    return edit


RANGE_ERROR = ("ParseError", "line 13: relation entries must lie in "
                             "0..label_count-1", 13)
# rows of cyclic(5) are "0 1 2 3 4", "4 0 1 2 3", ... at lines 13-17
RELATION_FAULTS = {
    "short row": (_edit_row(1, " 3", ""), (
        "ParseError", "line 14: relation row 1 has 4 entries, expected 5",
        14)),
    "long row": (_edit_row(1, " 3", " 3 1"), (
        "ParseError", "line 14: relation row 1 has 6 entries, expected 5",
        14)),
    "1.5": (_edit_row(0, "1", "1.5"), (
        "ParseError", "line 13: malformed relation entry in row 0", 13)),
    "x": (_edit_row(1, "1", "x"), (
        "ParseError", "line 14: malformed relation entry in row 1", 14)),
    "1_0": (_edit_row(0, "1", "1_0"), RANGE_ERROR),
    "99999999999": (_edit_row(0, "1", "99999999999"), RANGE_ERROR),
    "# in the block": (_edit_row(0, " 1", " #1"), (
        "ParseError", "line 13: malformed relation entry in row 0", 13)),
    "0_1 is int 1": (_edit_row(0, "1", "0_1"), None),
    "blank lines between rows": (lambda rows: rows[:2] + ["", "  "]
                                 + rows[2:], None),
    "trailing text": (lambda rows: rows[:5] + ["not a row"] + rows[5:],
                      None),
}


@pytest.mark.parametrize("name", RELATION_FAULTS)
def test_read_scheme_relation_error_contract(name):
    edit, want = RELATION_FAULTS[name]
    lines, start = _cyclic5_lines()
    got = _read_lines(lines[:start] + edit(lines[start:]))
    if want is None:
        # the same Scheme as the unedited file
        want = _read_lines(lines)
    assert got == want
    assert got == _row_loop_read(lines[:start] + edit(lines[start:]))


def test_relation_block_parses_in_one_call():
    lines, start = _cyclic5_lines()
    block = "\n".join(lines[start:start + 5]) + "\n"
    rel = scheme_module._load_relation_rows(block.encode(), 5, 5)
    assert rel.dtype == np.uint8
    assert np.array_equal(rel, cyclic_scheme(5).relation)


TOKENS = st.one_of(
    st.sampled_from(["0", "1", "4", "5", "-1", "+2", "01", "1.5", "x", "1_0",
                     "0_1", "#", "", "3 4", "99999999999", "\t3", "1e0"]),
    st.text(alphabet="0123456789 -+_.#x\t", max_size=4))


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), TOKENS),
                max_size=3),
       st.sampled_from([None, 0, 2, 5]))
def test_read_scheme_matches_row_loop_on_mutated_relations(edits, blank_at):
    lines, start = _cyclic5_lines()
    rows = [line.split(" ") for line in lines[start:start + 5]]
    for r, c, token in edits:
        rows[r][c] = token
    block = [" ".join(row) for row in rows]
    if blank_at is not None:
        block.insert(blank_at, "")
    mutated = lines[:start] + block + lines[start + 5:]
    got = _read_lines(mutated)
    assert got[0] in ("ok", "ParseError")
    assert got == _row_loop_read(mutated)


@pytest.mark.parametrize("bad", [4, -1])
def test_borel_family_rejects_out_of_range_labels(bad):
    scheme = cyclic_scheme(4)
    with pytest.raises(ValueError, match=rf"unknown label {bad} .*\(2, {bad}\)"):
        scheme_module.resolve_borel_family(scheme, [(0,), (2, bad)])
    with pytest.raises(ValueError, match=f"unknown label {bad}"):
        verify_cas(scheme, borel_family=[(1, bad)])
    sets, _ = scheme_module.resolve_borel_family(scheme, [(0, 3), (1, 2)])
    assert sets == [(0, 3), (1, 2)]


@pytest.mark.parametrize("family", ["bins", []])
def test_an_empty_family_is_refused_whoever_supplies_it(family):
    c5 = cyclic_scheme(5)
    scheme = Scheme(c5.space, c5.label_space, c5.relation, borel_bins=())
    with pytest.raises(ValueError, match="borel family must be non-empty"):
        verify_cas(scheme, borel_family=family)


def test_float_labels_are_refused_not_truncated():
    # hamming(3, 2) has labels 0..3: 1.5 must not act as label 1
    scheme = hamming_scheme(3, 2)
    with pytest.raises(ValueError, match=r"unknown label 1\.5 .*\(1\.5,\)"):
        verify_cas(scheme, borel_family=[(1.5,), (2,)])
    with pytest.raises(ValueError, match=r"unknown label 1\.5$"):
        fiber(scheme, 1.5)
    with pytest.raises(ValueError, match=r"unknown label 1\.5 in label set"):
        intersection_number(scheme, (1.5,), (1,), 1)
    with pytest.raises(ValueError, match=r"unknown label 1\.5$"):
        intersection_number(scheme, (1,), (1,), 1.5)
    # numpy integers are labels
    rep = verify_cas(scheme, borel_family=[(np.int64(1),), (np.uint8(2),)])
    assert rep.borel_family_descriptor == "caller-supplied (2 sets)"
    assert rep.passed()
    for xs, want in zip(fiber(scheme, np.int32(1)), fiber(scheme, 1)):
        assert np.array_equal(xs, want)
    assert (intersection_number(scheme, (np.int16(1),), (1,), np.uint8(2))
            == intersection_number(scheme, (1,), (1,), 2))


@pytest.mark.parametrize("bad", [0, -1])
def test_empty_fiber_samples_are_refused(bad):
    with pytest.raises(ValueError, match=f"at least 1 pair, got {bad}"):
        verify_cas(cyclic_scheme(4), max_pairs_per_fiber=bad)


SAMPLE_SIZES = {
    "max_pairs_per_fiber": lambda s, v: verify_cas(s, max_pairs_per_fiber=v),
    "max_pairs": lambda s, v: intersection_number(s, (1,), (1,), 1,
                                                  max_pairs=v),
    "max_reps": lambda s, v: convolve_point_masses(kernel_of_scheme(s), 1, 1,
                                                   max_reps=v),
}


@pytest.mark.parametrize("bad", [2.5, 1.5, np.float64(3.0), "3"])
@pytest.mark.parametrize("name", SAMPLE_SIZES)
def test_sample_sizes_must_be_integers(name, bad):
    call = SAMPLE_SIZES[name]
    scheme = cyclic_scheme(6)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer, got {bad!r}")):
        call(scheme, bad)
    # numpy integers are sample sizes
    call(scheme, np.int32(2))


def _bma_at(tolerance):
    scheme = hamming_scheme(3, 2)
    alg = algebra_of_scheme(scheme)
    bump, nbhd = indicator_bump(scheme.label_space)
    identity = build_approximate_identity(scheme, nbhd, bump)
    probes, _ = default_probes(alg)
    return verify_bma(alg, [identity], probes, tolerance=tolerance)


TOLERANCES = {
    "verify_cas": lambda tol: verify_cas(hamming_scheme(3, 2), tolerance=tol),
    "verify_bma": _bma_at,
    "verify_strong_cas": lambda tol: verify_strong_cas(
        kernel_of_scheme(hamming_scheme(3, 2)), random_probe_pairs(4, 2),
        tolerance=tol),
    # sphere(60, 4) has no invariant measure: its row masses vary by pi,
    # which a NaN tolerance would let through
    "kernel_of_scheme": lambda tol: kernel_of_scheme(
        sphere_scheme(60, 4, seed=1), tolerance=tol),
    # hamming(3, 2) is strong: its spread is 0.0, which no NaN tolerance
    # can flag, so only the tolerance check refuses one
    "convolve_point_masses": lambda tol: convolve_point_masses(
        kernel_of_scheme(hamming_scheme(3, 2)), 1, 1, tolerance=tol),
    "roundtrip_check": lambda tol: roundtrip_check(
        hamming_scheme(3, 2), grouping_tolerance=tol),
    "check_approximate_identity": lambda tol: check_approximate_identity(
        [diagonal_kernel(hamming_scheme(3, 2).space)],
        default_probes(algebra_of_scheme(hamming_scheme(3, 2)))[0], tol),
}


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
@pytest.mark.parametrize("entry", TOLERANCES)
def test_every_entry_point_refuses_a_negative_or_nan_tolerance(entry, bad):
    with pytest.raises(ValueError, match=f"^tolerance must be >= 0, "
                                         f"got {bad!r}$"):
        TOLERANCES[entry](bad)


def test_an_infinite_tolerance_passes_every_check():
    for entry in ("verify_cas", "verify_bma", "verify_strong_cas"):
        assert TOLERANCES[entry](float("inf")).passed()
    kernel_of_scheme(sphere_scheme(60, 4, seed=1), tolerance=float("inf"))


def test_family_too_large_for_its_tables_is_refused_before_reducing(
        monkeypatch):
    # circle(120, 30): 120 singletons and 7 140 pairs, 7 260**2 > 5e7
    def no_work(*args, **kwargs):
        raise AssertionError("a refused family reduced a fiber")

    for name in ("_sample_fiber", "_reduce_cells",
                 "_projected_pair_stats", "joint_table"):
        monkeypatch.setattr(scheme_module, name, no_work)
    with pytest.raises(ValueError, match="borel family has 7260 sets; "
                                         "the 7260x7260 deviation tables"):
        verify_cas(circle_scheme(120, 30), borel_family="pairs")
