"""The symmetry route of verify_cas against the full route.

A scheme whose recipe names symmetries (the shift of cyclic and circle,
the unit translations of hamming, the generators of group) is checked
once per scheme: every generator must keep each relation entry and each
weight, and the orbit of node 0 must reach every node. When that holds,
verify_cas reduces only the base-row pairs (0, z). The oracle is the full
route on the same scheme without its recipe. CAS2 must be exactly equal;
every other field within ULPS units in the last place. A certificate that
fails names its first fault and leaves the full route's report unchanged.
"""

import json
from itertools import permutations

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, delsarte_scheme, dihedral_group,
                    hamming_scheme, make_quadrature, read_scheme,
                    sphere_scheme, verify_cas, write_scheme)
from casmat import cli
from casmat import scheme as scheme_module
from casmat.catalog import materialize_recipe
from casmat.cli import main
from casmat.scheme import _certificate
from test_cli import identity_off_the_diagonal

# measured 0 on every case below; the means behind CAS4 and the transpose
# identity divide sums over different pair counts, so equality is not
# promised beyond rounding
ULPS = 4


def group_recipe(gens):
    return "group generators=" + ";".join(
        ",".join(str(int(v)) for v in g) for g in gens)


def s4_regular():
    """S4 acting on its 24 elements by left multiplication."""
    elements = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(g[h[i]] for i in range(4))] for h in elements]
            for g in ((1, 0, 2, 3), (1, 2, 3, 0))]


RECIPES = {
    "cyclic12": "cyclic n=12",
    "circle24": "circle nodes=24 bins=6",
    "circle24_unsigned": "circle nodes=24 bins=6 signed=false",
    "circle30_5": "circle nodes=30 bins=5",
    "hamming3_3": "hamming d=3 q=3",
    "hamming4_2": "hamming d=4 q=2",
    "s4_regular": group_recipe(s4_regular()),
    "dihedral9": group_recipe(dihedral_group(9)),
}


def without_recipe(scheme):
    return Scheme(scheme.space, scheme.label_space, scheme.relation,
                  scheme.borel_bins)


def with_recipe(scheme, recipe):
    twin = without_recipe(scheme)
    twin.recipe = recipe
    return twin


def families(scheme):
    L = scheme.label_count
    out = [None, [(i, (i + 1) % L) for i in range(0, L, 2)]]
    if L <= 30:
        out.append("pairs")
    if scheme.borel_bins is not None:
        out.append("bins")
    return out


def assert_routes_agree(scheme, oracle, family):
    got = verify_cas(scheme, family, tolerance=1e-12).as_dict()
    want = verify_cas(oracle, family, tolerance=1e-12).as_dict()
    route = got["witnesses"].pop("route")
    assert "route" not in want["witnesses"]
    assert got["cas2_max_deviation"] == want["cas2_max_deviation"]
    assert got["witnesses"] == want["witnesses"]
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= ULPS * np.spacing(abs(value)), key
        else:
            assert got[key] == value, key
    return route


@pytest.mark.parametrize("name", RECIPES)
def test_symmetry_route_matches_the_full_route(name):
    scheme, _ = materialize_recipe(RECIPES[name])
    assert scheme.recipe == RECIPES[name]
    gens = {"hamming3_3": 3, "hamming4_2": 4, "s4_regular": 2,
            "dihedral9": 2}.get(name, 1)
    for family in families(scheme):
        route = assert_routes_agree(scheme, without_recipe(scheme), family)
        assert route == [{"route": "symmetry", "generators": gens}]


def test_the_certificate_is_checked_once_per_scheme(monkeypatch):
    scheme, _ = materialize_recipe("circle nodes=24 bins=6")
    calls = []
    check = scheme_module._symmetry_fault
    monkeypatch.setattr(scheme_module, "_symmetry_fault",
                        lambda *a: calls.append(1) or check(*a))
    for family in (None, "bins", None):
        verify_cas(scheme, family)
    assert calls == [1]


def test_the_symmetry_route_reduces_the_base_row_only(monkeypatch):
    scheme, _ = materialize_recipe("cyclic n=10")
    seen = []
    reduce = scheme_module._reduce_cells

    def spy(relation, weights, xs, zs, *args, **kwargs):
        seen.append((xs.copy(), zs.copy()))
        return reduce(relation, weights, xs, zs, *args, **kwargs)

    monkeypatch.setattr(scheme_module, "_reduce_cells", spy)
    verify_cas(scheme)
    # each leader k reads (0, k); a partner k^T = 10 - k reads (k, 0)
    pairs = sorted((int(x), int(z)) for xs, zs in seen
                   for x, z in zip(xs, zs))
    assert len(pairs) == 10
    assert pairs == sorted([(0, k) for k in range(6)]
                           + [(k, 0) for k in range(1, 5)])


def corrupt_one_entry(scheme):
    """One off-diagonal entry relabelled with neither its label nor the
    partner, as the benchmark corrupts cyclic(48)."""
    rel = scheme.relation.copy()
    n = len(rel)
    old = int(rel[3, 7])
    rel[3, 7] = next(d for d in range(1, n)
                     if d not in (old, int(scheme.label_space.involution[old])))
    return Scheme(scheme.space, scheme.label_space, rel)


def test_one_relabelled_entry_fails_the_certificate():
    clean, recipe = materialize_recipe("cyclic n=48")
    bad = corrupt_one_entry(clean)
    route = assert_routes_agree(with_recipe(bad, recipe), bad, None)
    # shifting (2, 6) lands on the relabelled (3, 7)
    assert route == [{"route": "full", "not_invariant": [2, 6],
                      "generator": 0}]
    report = verify_cas(bad)
    assert not report.cas3_ok and report.cas2_max_deviation > 0


def moved_orbit():
    """H(3, 2) with the translation orbit {(x, x + e_0)} moved from distance
    1 to distance 2: closed under the translations and its own transpose,
    so CAS3 and the certificate hold while CAS2 breaks."""
    clean, recipe = materialize_recipe("hamming d=3 q=2")
    rel = clean.relation.copy()
    x = np.arange(8)
    rel[x, x ^ 4] = 2
    return Scheme(clean.space, clean.label_space, rel), recipe, 3


def merged_shifts():
    """Z_8 with the shifts 1 and 2 made one label, and 6 and 7 its partner:
    invariant and CAS3-consistent, not symmetric, and no scheme."""
    merge = np.array([0, 1, 1, 2, 3, 4, 5, 5])
    cyclic, recipe = materialize_recipe("cyclic n=8")
    labels = LabelSpace(involution=[0, 5, 4, 3, 2, 1], identity_label=0)
    return (Scheme(cyclic.space, labels, merge[cyclic.relation]), recipe,
            1)


@pytest.mark.parametrize("build", [moved_orbit, merged_shifts])
def test_an_invariant_relation_that_fails_cas2_fails_it_alike(build):
    scheme, recipe, gens = build()
    route = assert_routes_agree(with_recipe(scheme, recipe), scheme, None)
    assert route == [{"route": "symmetry", "generators": gens}]
    report = verify_cas(scheme, tolerance=1e-12)
    assert report.cas3_ok and report.cas2_max_deviation > 0
    assert "cas2" in report.witnesses


def test_a_lying_recipe_takes_the_full_route():
    hamming, _ = materialize_recipe("hamming d=3 q=2")
    liar = with_recipe(hamming, "cyclic n=8")
    route = assert_routes_agree(liar, without_recipe(hamming), None)
    assert route[0]["route"] == "full" and "not_invariant" in route[0]
    x, y = route[0]["not_invariant"]
    assert hamming.relation[x + 1, (y + 1) % 8] != hamming.relation[x, y]


def test_weights_that_are_not_invariant_fail_the_certificate():
    circle, recipe = materialize_recipe("circle nodes=12 bins=3")
    w = np.array(circle.space.weights)
    w[5] = np.nextafter(w[5], 1.0)
    bumped = Scheme(make_quadrature(w), circle.label_space, circle.relation)
    route = assert_routes_agree(with_recipe(bumped, recipe), bumped, None)
    # the shift sends node 4 onto node 5
    assert route == [{"route": "full", "weight_not_invariant": 4,
                      "generator": 0}]


def test_a_group_that_misses_a_node_fails_the_certificate():
    # x -> x + 2 keeps cyclic(6), but its orbit of 0 is 0, 2, 4
    cyclic, _ = materialize_recipe("cyclic n=6")
    half = group_recipe([[(x + 2) % 6 for x in range(6)]])
    route = assert_routes_agree(with_recipe(cyclic, half),
                                without_recipe(cyclic), None)
    assert route == [{"route": "full", "unreached": 1}]


@pytest.mark.parametrize("recipe", [
    "sphere nodes=8 bins=2", "hamming d=3", "hamming d=2 q=3", "hamming d=99999999 q=2",
    "group generators=1,0", "group generators=0,1,2,3,4,5,6,8",
    "group generators=", "group gens=1,2", "group generators=" + "9" * 30,
    "cyclic 'n=8", "klein n=8", ""])
def test_recipes_that_name_no_symmetry_of_the_nodes_give_none(recipe):
    scheme = with_recipe(hamming_scheme(3, 2), recipe)
    assert scheme_module._recipe_generators(recipe, 8) == []
    assert _certificate(scheme) == {}
    assert "route" not in verify_cas(scheme).witnesses


def test_hamming_generators_are_the_unit_translations():
    gens = scheme_module._recipe_generators("hamming d=2 q=3", 9)
    words = [(a, b) for a in range(3) for b in range(3)]
    for j, g in enumerate(gens):
        for x, word in enumerate(words):
            moved = list(word)
            moved[j] = (moved[j] + 1) % 3
            assert words[g[x]] == tuple(moved)


@pytest.fixture
def no_certificate(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(scheme_module, "_symmetry_fault", refuse)


def test_sphere_delsarte_and_recipe_less_files_never_run_it(
        tmp_path, capsys, no_certificate):
    sphere, recipe = materialize_recipe("sphere nodes=30 bins=4 seed=3")
    metric = tmp_path / "metric.txt"
    np.savetxt(metric, np.abs(np.subtract.outer(np.arange(7.0),
                                                np.arange(7.0))))
    delsarte, drecipe = materialize_recipe(f"delsarte metric={metric}")
    for scheme, line in ((sphere, recipe), (delsarte, drecipe),
                         (hamming_scheme(3, 2), None)):
        assert scheme.recipe == line
        assert "route" not in verify_cas(scheme).witnesses
        path = tmp_path / "s.scheme"
        write_scheme(scheme, path, recipe=line)
        assert read_scheme(path).recipe == line
        main(["verify", str(path), "--bma", "off"])
        (cas2,) = [c for c in json.loads(capsys.readouterr().out)["checks"]
                   if c["name"] == "cas2_intersection_constancy"]
        assert not any("route" in w for w in cas2["witnesses"])
    assert sphere_scheme(30, 4).recipe is None
    assert delsarte_scheme(np.ones((2, 2)) - np.eye(2)).recipe is None


def test_a_sampled_call_keeps_the_seeded_route(no_certificate):
    scheme, _ = materialize_recipe("cyclic n=12")
    oracle = without_recipe(scheme)
    # fibers hold 12 pairs: a cap of 5 samples, so no certificate is made
    got = verify_cas(scheme, max_pairs_per_fiber=5, seed=7)
    assert got == verify_cas(oracle, max_pairs_per_fiber=5, seed=7)
    assert got.sampled and "route" not in got.witnesses


def test_a_cap_that_samples_nothing_takes_the_symmetry_route():
    scheme, _ = materialize_recipe("cyclic n=12")
    got = verify_cas(scheme, max_pairs_per_fiber=12)
    assert not got.sampled
    assert got.witnesses["route"] == [{"route": "symmetry", "generators": 1}]


def run_verify(capsys, *argv):
    code = main(["verify", *argv])
    report = json.loads(capsys.readouterr().out)
    return code, {c["name"]: c for c in report["checks"]}


def catalog(tmp_path, capsys, *argv):
    path = tmp_path / f"{argv[0]}.scheme"
    assert main(["catalog", *argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_the_report_names_the_route(tmp_path, capsys):
    path = catalog(tmp_path, capsys, "hamming", "--d", "3", "--q", "2")
    code, checks = run_verify(capsys, str(path))
    assert code == 0
    assert checks["cas2_intersection_constancy"]["witnesses"] == [
        {"route": "symmetry", "generators": 3}]
    # a recipe that lies: the full route, and the first pair it moves
    text = path.read_text().replace("recipe hamming d=3 q=2",
                                    "recipe cyclic n=8")
    path.write_text(text)
    code, checks = run_verify(capsys, str(path))
    assert code == 0
    (witness,) = checks["cas2_intersection_constancy"]["witnesses"]
    assert witness["route"] == "full" and witness["generator"] == 0
    assert len(witness["not_invariant"]) == 2


def test_the_symmetry_route_is_priced_at_one_base_row(tmp_path, capsys,
                                                      monkeypatch):
    # H(3, 2) from its recipe: 8 base-row pairs of 8 steps
    path = catalog(tmp_path, capsys, "hamming", "--d", "3", "--q", "2")
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 64)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 63)
    assert main(["verify", str(path)]) == 2
    assert "6.4e+01 CAS2 steps" in capsys.readouterr().err


def test_a_circle_past_the_full_budget_is_certified(tmp_path, capsys):
    # 1 100**3 = 1.3e9 steps in full, over the 1e9 budget; 1.2e6 on one
    # base row
    path = catalog(tmp_path, capsys, "circle", "--nodes", "1100",
                   "--bins", "10")
    code, checks = run_verify(capsys, str(path), "--tol", "1e-12")
    assert code == 0
    assert checks["cas2_intersection_constancy"]["residual"] == 0.0
    assert checks["row_valency_constancy"]["residual"] == 0.0
    recipe_less = tmp_path / "plain.scheme"
    write_scheme(read_scheme(path), recipe_less)
    assert main(["verify", str(recipe_less), "--tol", "1e-12"]) == 2
    assert "1.3e+09 CAS2 steps" in capsys.readouterr().err


def test_bma_auto_names_why_it_skipped(tmp_path, capsys, monkeypatch):
    circle = catalog(tmp_path, capsys, "circle", "--nodes", "130",
                     "--bins", "10")
    sphere = catalog(tmp_path, capsys, "sphere", "--nodes", "1030",
                     "--bins", "3")
    hamming = catalog(tmp_path, capsys, "hamming", "--d", "3", "--q", "2")

    def reason(path, *flags):
        _, checks = run_verify(capsys, str(path), "--max-pairs", "2",
                               *flags)
        assert checks["bma_checks"]["status"] == "skipped"
        (witness,) = checks["bma_checks"]["witnesses"]
        return witness["reason"]

    assert reason(circle) == "130 labels (--bma auto cap 64)"
    assert reason(sphere) == "1030 nodes (--bma auto cap 1024)"
    assert reason(hamming, "--bma", "off") == "--bma off"
    # an identity off the diagonal: 2 x (7 labels + 3 random probes)
    # dense products of 8**3 steps
    off = tmp_path / "off.scheme"
    write_scheme(identity_off_the_diagonal(), off)
    monkeypatch.setattr("casmat.cli.BMA_WORK_BUDGET", 100)
    assert reason(off) == "1.0e+04 dense-product steps (BMA budget 1e+02)"
    # H(3, 2): 512 steps of the fiber pass, priced as CAS2 steps against
    # the 128 of its sampled CAS2 check
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 200)
    assert reason(hamming) == "5.1e+02 fiber-pass steps (CAS2 budget 2e+02)"
