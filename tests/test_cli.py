import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, circle_scheme, cyclic_scheme,
                    hamming_scheme, read_scheme, sphere_scheme, write_scheme)
from casmat import cli, errors
from casmat.cli import main
from casmat.errors import _LineReader
from casmat.scheme import _sample_fiber, resolve_borel_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report


@pytest.fixture
def hamming_file(tmp_path, capsys):
    path = tmp_path / "h32.scheme"
    code, _ = run(capsys, "catalog", "hamming", "--d", "3", "--q", "2",
                  "--out", str(path))
    assert code == 0
    return path


def test_catalog_digest_stable_across_runs(tmp_path, capsys):
    p1, p2 = tmp_path / "a.scheme", tmp_path / "b.scheme"
    code1, rep1 = run(capsys, "catalog", "cyclic", "--n", "12", "--out", str(p1))
    code2, rep2 = run(capsys, "catalog", "cyclic", "--n", "12", "--out", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert rep1["input_digest"] == rep2["input_digest"]


def test_verify_hamming_passes(hamming_file, capsys):
    code, report = run(capsys, "verify", str(hamming_file))
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cas2_intersection_constancy"]["residual"] == 0.0
    assert by_name["cas2_intersection_constancy"]["status"] == "pass"
    assert by_name["bma2_composition_closure"]["status"] == "pass"
    assert report["input_digest"].startswith("sha256:")


def test_verify_corrupted_relation_fails_with_witness(tmp_path, hamming_file,
                                                      capsys):
    scheme = read_scheme(hamming_file)
    rel = scheme.relation.copy()
    rel[0, 1] = 2  # flip one off-diagonal label
    bad = Scheme(scheme.space, scheme.label_space, rel)
    bad_path = tmp_path / "bad.scheme"
    write_scheme(bad, bad_path)
    code, report = run(capsys, "verify", str(bad_path))
    assert code == 1
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing
    assert any(c["name"].startswith(("cas2", "cas3")) for c in failing)
    assert all(c["witnesses"] for c in failing)
    # no Markov kernel exists, and the round trip induces no involution
    for command, name in (("hypergroup", "markov_kernel"),
                          ("correspond", "roundtrip")):
        code, report = run(capsys, command, str(bad_path))
        assert code == 1
        (check,) = report["checks"]
        assert check["name"] == name and check["status"] == "fail"
        (witness,) = check["witnesses"]
        assert list(witness) == ["detail"] and witness["detail"]


def test_missing_file_exits_2(capsys):
    code = main(["verify", "/nonexistent/x.scheme"])
    assert code == 2


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.scheme"
    path.write_text("#casmat-scheme v1\nnodes two\n")
    code = main(["verify", str(path)])
    assert code == 2


@pytest.mark.parametrize("where", ["nodes", "relation"])
def test_non_utf8_byte_exits_2_naming_its_line(hamming_file, capsys, where):
    data = hamming_file.read_bytes()
    if where == "nodes":
        data, line = data.replace(b"nodes 8", b"nodes \xff8"), 3
    else:
        head, _, rows = data.partition(b"relation\n")
        data = head + b"relation\n" + rows.replace(b"\n", b"\xff\n", 1)
        line = head.count(b"\n") + 2
    hamming_file.write_bytes(data)
    assert main(["verify", str(hamming_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0
    assert captured.err.startswith(f"error: {hamming_file}: line {line}: "
                                   f"byte 0xff is not valid UTF-8")


def test_bad_flags_exit_2(capsys):
    assert main(["verify"]) == 2
    assert main(["frobnicate"]) == 2


def test_determinism_except_wall_time(hamming_file, capsys):
    code1, rep1 = run(capsys, "verify", str(hamming_file), "--seed", "7")
    code2, rep2 = run(capsys, "verify", str(hamming_file), "--seed", "7")
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def test_report_file_written(tmp_path, hamming_file, capsys):
    out = tmp_path / "report.json"
    code, printed = run(capsys, "verify", str(hamming_file),
                        "--report", str(out))
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == printed


def test_correspond_cyclic12(tmp_path, capsys):
    path = tmp_path / "z12.scheme"
    run(capsys, "catalog", "cyclic", "--n", "12", "--out", str(path))
    code, report = run(capsys, "correspond", str(path))
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["partition_roundtrip"]["status"] == "pass"
    assert by_name["involution_correspondence"]["status"] == "pass"


def test_correspond_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique loads numpy.ma, 14-16 ms of a child's start-up
    path = tmp_path / "z12.scheme"
    write_scheme(cyclic_scheme(12), path)
    script = ("import sys\n"
              "from casmat.cli import main\n"
              f"code = main(['correspond', {str(path)!r}])\n"
              "sys.exit(code or 3 * ('numpy.ma' in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks[0] == {"name": "partition_roundtrip", "status": "pass",
                         "residual": 0.0, "tolerance": 0.0, "witnesses": []}


def test_hypergroup_hamming(hamming_file, capsys):
    code, report = run(capsys, "hypergroup", str(hamming_file),
                       "--probes", "10", "--tol", "1e-12")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("identity_convolution", "pullback_convolution",
                 "transport", "anti_automorphism"):
        assert by_name[name]["status"] == "pass"
        assert by_name[name]["residual"] <= 1e-12


def test_hypergroup_without_an_identity_reports_strict_json(tmp_path,
                                                           capsys):
    base = cyclic_scheme(6)
    path = tmp_path / "no_identity.scheme"
    write_scheme(Scheme(base.space,
                        LabelSpace(involution=base.label_space.involution),
                        base.relation), path)
    code = main(["hypergroup", str(path), "--probes", "2"])
    text = capsys.readouterr().out
    assert code == 1

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    report = json.loads(text, parse_constant=refuse)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["identity_convolution"] == {
        "name": "identity_convolution", "status": "fail", "residual": 1.0,
        "tolerance": 0.0,
        "witnesses": [{"detail": "no identity label declared"}]}
    assert by_name["markov_kernel"]["status"] == "pass"


def test_borel_family_from_file(tmp_path, hamming_file, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("# one set per line\n0 1\n\n  # indented\n2 3\n\n1\n")
    code, report = run(capsys, "verify", str(hamming_file),
                       "--borel-family", f"file:{fam}")
    assert code == 0
    assert report["arguments"]["borel_family"] == f"file:{fam}"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cas2_intersection_constancy"]["status"] == "pass"


@pytest.mark.parametrize("body, message", [
    (b"0 1\n\n# sets\nx\n", "line 4: malformed label set 'x'"),
    (b"0 1\n1 \xff\n", "line 2: byte 0xff is not valid UTF-8"),
])
def test_malformed_borel_family_file_names_file_and_line(
        tmp_path, hamming_file, capsys, body, message):
    fam = tmp_path / "family.txt"
    fam.write_bytes(body)
    code = main(["verify", str(hamming_file), "--borel-family",
                 f"file:{fam}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {fam}: {message}\n"


def test_bare_file_borel_family_is_unknown(hamming_file, capsys):
    code = main(["verify", str(hamming_file), "--borel-family", "file"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown borel family 'file'\n"


def test_verify_circle_with_stored_bins(tmp_path, capsys):
    path = tmp_path / "c.scheme"
    run(capsys, "catalog", "circle", "--nodes", "24", "--bins", "6",
        "--out", str(path))
    code, report = run(capsys, "verify", str(path), "--tol", "1e-12",
                       "--borel-family", "bins", "--bma", "off")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["bma_checks"]["status"] == "skipped"


def test_missing_stored_bins_is_usage_error(tmp_path, capsys):
    path = tmp_path / "z.scheme"
    run(capsys, "catalog", "cyclic", "--n", "6", "--out", str(path))
    code = main(["verify", str(path), "--borel-family", "bins"])
    assert code == 2


def test_inhomogeneous_scheme_reports_bma_failure(tmp_path, capsys):
    # non-constant row masses: the bump identity cannot be built, which
    # must surface as a failed check, not a traceback
    import numpy as np
    from casmat import LabelSpace, make_quadrature
    rel = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ls = LabelSpace(involution=np.arange(2), identity_label=0)
    scheme = Scheme(make_quadrature([1.0, 1.0, 2.0]), ls, rel)
    path = tmp_path / "inhomogeneous.scheme"
    write_scheme(scheme, path)
    code, report = run(capsys, "verify", str(path))
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["bma_checks"]["status"] == "fail"
    assert by_name["bma_checks"]["witnesses"]


def test_catalog_recipe_kind(tmp_path, capsys):
    path = tmp_path / "r.scheme"
    code, _ = run(capsys, "catalog", "recipe", "--spec", "cyclic n=6",
                  "--out", str(path))
    assert code == 0
    assert read_scheme(path).label_count == 6


def test_exit_code_contract_under_subprocess():
    proc = subprocess.run([sys.executable, "-m", "casmat", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "casmat" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "casmat", "verify",
                           "/does/not/exist"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_a_closed_stdout_keeps_the_verdict(tmp_path):
    # the reader closes its end before the child writes, as `| head -1`
    # can: the report is lost, the passing verdict and a quiet stderr not
    path = tmp_path / "z12.scheme"
    write_scheme(cyclic_scheme(12), path)
    proc = subprocess.Popen([sys.executable, "-m", "casmat", "verify",
                             str(path), "--tol", "1e-12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0, stderr
    assert stderr == b""


def test_catalog_recipe_missing_parameter_is_usage_error(tmp_path, capsys):
    code = main(["catalog", "recipe", "--spec", "cyclic",
                 "--out", str(tmp_path / "x.scheme")])
    assert code == 2
    err = capsys.readouterr().err
    assert "n=" in err and "Traceback" not in err
    assert not (tmp_path / "x.scheme").exists()


def test_catalog_with_an_unwritable_report_writes_no_scheme(tmp_path,
                                                            capsys):
    out = tmp_path / "y.scheme"
    code = main(["catalog", "cyclic", "--n", "6", "--out", str(out),
                 "--report", str(tmp_path / "nodir" / "r.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.fixture
def catalog_inputs(tmp_path):
    """A directory, with a space in its name, holding an octahedron
    quadrature file q.txt and a 3-point metric file metric.txt."""
    from casmat import make_quadrature, write_quadrature
    spaced = tmp_path / "dir with space"
    spaced.mkdir()
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    write_quadrature(make_quadrature(np.ones(6), coordinates=octahedron),
                     spaced / "q.txt")
    np.savetxt(spaced / "metric.txt", 1.0 - np.eye(3))
    return spaced


@pytest.mark.parametrize("argv, recipe", [
    (["cyclic", "--n", "5"], "cyclic n=5"),
    (["hamming", "--d", "2", "--q", "3"], "hamming d=2 q=3"),
    (["group", "--generator", "1, 2,0"], "group generators=1,2,0"),
    (["group", "--generator", " 1, 2,0"], "group generators=1,2,0"),
    (["group", "--generator", "1,2,0", "--generator", "0, 2,1"],
     "group generators=1,2,0;0,2,1"),
    (["circle", "--nodes", "12", "--bins", "4", "--unsigned"],
     "circle nodes=12 bins=4 signed=false"),
    (["circle", "--nodes", "12", "--bins", "4"],
     "circle nodes=12 bins=4 signed=true"),
    (["sphere", "--nodes", "20", "--bins", "4", "--seed", "3"],
     "sphere nodes=20 bins=4 seed=3"),
    (["sphere", "--nodes", "20", "--bins", "4"],
     "sphere nodes=20 bins=4 seed=1729"),
    (["sphere", "--quadrature", "{D}/q.txt", "--bins", "3"],
     "sphere quadrature='{D}/q.txt' bins=3"),
    # the seed places random nodes only, so a quadrature records none
    (["sphere", "--quadrature", "{D}/q.txt", "--bins", "3", "--seed", "5"],
     "sphere quadrature='{D}/q.txt' bins=3"),
    (["delsarte", "--metric", "{D}/metric.txt"],
     "delsarte metric='{D}/metric.txt'"),
    (["delsarte", "--metric", "{D}/metric.txt", "--bins", "2"],
     "delsarte metric='{D}/metric.txt' bins=2"),
])
def test_catalog_kinds_write_their_recipe_files(catalog_inputs, capsys, argv,
                                                recipe):
    # each kind goes through the recipe dispatch; the file records the
    # recipe that rebuilds it byte for byte, input paths with spaces too
    direct = catalog_inputs / "direct.scheme"
    again = catalog_inputs / "again.scheme"
    argv = [a.replace("{D}", str(catalog_inputs)) for a in argv]
    recipe = recipe.replace("{D}", str(catalog_inputs))
    code, report = run(capsys, "catalog", *argv, "--out", str(direct))
    assert code == 0
    assert direct.read_text().splitlines()[1] == "recipe " + recipe
    (materialized,) = report["checks"]
    (witness,) = materialized["witnesses"]
    assert witness["recipe"] == recipe
    assert all(type(witness[key]) is int for key in ("nodes", "labels"))
    assert run(capsys, "catalog", "recipe", "--spec", recipe,
               "--out", str(again))[0] == 0
    assert again.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("argv", [
    ["sphere", "--bins", "4"],
    ["sphere", "--bins", "4", "--seed", "3"],
    ["recipe", "--spec", "sphere bins=4"],
    ["recipe", "--spec", "sphere bins=4 seed=3"],
])
def test_sphere_without_nodes_or_quadrature_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.scheme"
    assert main(["catalog", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sphere needs nodes= or quadrature=\n"
    assert not out.exists()


def test_bad_casmat_seed_is_usage_error(hamming_file, capsys, monkeypatch):
    monkeypatch.setenv("CASMAT_SEED", "abc")
    assert main(["verify", str(hamming_file)]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and "CASMAT_SEED" in err
    assert main(["hypergroup", str(hamming_file)]) == 2
    # an explicit --seed does not read the environment
    assert main(["verify", str(hamming_file), "--seed", "3"]) == 0


def test_verify_refuses_work_over_budget(tmp_path, capsys, monkeypatch):
    # h32 with no recipe, so no symmetry certificate prices it at one base
    # row: 8 nodes, 4 labels, 64 fiber pairs -> 512 pair x node steps
    hamming_file = tmp_path / "h32_plain.scheme"
    write_scheme(hamming_scheme(3, 2), hamming_file)
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 100)
    assert main(["verify", str(hamming_file)]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0
    assert "5.1e+02" in err and "--max-pairs 1" in err
    # every label is self-paired, so a sample of N holds up to 2N pairs:
    # the suggestion fits the budget (4 labels x 2 pairs x 8 nodes), and
    # 3 does not (4 x 6 x 8)
    assert main(["verify", str(hamming_file), "--max-pairs", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", str(hamming_file), "--max-pairs", "3"]) == 2
    assert "1.9e+02" in capsys.readouterr().err
    assert main(["verify", str(hamming_file), "--max-pairs", "0"]) == 2
    assert "--max-pairs must be at least 1" in capsys.readouterr().err


@pytest.fixture
def no_verify_run(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused verify ran a check")

    for name in ("verify_cas", "algebra_of_scheme", "default_probes"):
        monkeypatch.setattr(cli, name, no_work)


def test_overlapping_family_work_is_refused_up_front(tmp_path, capsys,
                                                     no_verify_run):
    # cyclic(100) pairs: 5 050 overlapping sets, so each fiber pair fills
    # and scans a 5 050 x 5 050 table: 100 + 5 050**2 steps a pair
    path = tmp_path / "c100.scheme"
    write_scheme(cyclic_scheme(100), path)
    for sample, work in (([], "2.6e+11"), (["--max-pairs", "1"], "2.6e+09")):
        started = time.perf_counter()
        code = main(["verify", str(path), "--borel-family", "pairs",
                     *sample])
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: verify would evaluate {work} ")
        assert captured.err.strip().count("\n") == 0
        assert "use a smaller borel family" in captured.err
        assert elapsed < 1.0


def test_overlapping_family_work_suggests_a_sample_that_fits():
    # cyclic(48) pairs: 2 304 pairs x (48 + 1 176**2) = 3.2e9 steps.
    # Labels 0 and 24 are self-paired, so a sample of N holds up to 2N of
    # their pairs: N = 15 gives 750 pairs, 1.04e9 steps
    scheme = cyclic_scheme(48)
    sets, _ = resolve_borel_family(scheme, "pairs")
    with pytest.raises(cli._Refusal, match="--max-pairs 14"):
        cli._check_verify_work(scheme, None, False, sets)
    cli._check_verify_work(scheme, 14, False, sets)
    with pytest.raises(cli._Refusal):
        cli._check_verify_work(scheme, 15, False, sets)
    # disjoint sets and singletons count n steps a pair
    cli._check_verify_work(scheme, None, False, sets[:48])
    cli._check_verify_work(scheme, None, False,
                           [(i, i + 1) for i in range(0, 48, 2)])


def test_small_pairs_family_runs_through_the_cli(tmp_path, capsys):
    path = tmp_path / "c5.scheme"
    write_scheme(cyclic_scheme(5), path)
    code, report = run(capsys, "verify", str(path), "--borel-family", "pairs")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cas2_intersection_constancy"]["residual"] == 0.0


def test_family_too_large_for_memory_exits_2(tmp_path, capsys,
                                             no_verify_run):
    path = tmp_path / "c120.scheme"
    write_scheme(circle_scheme(120, 30), path)
    assert main(["verify", str(path), "--borel-family", "pairs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: borel family has 7260 sets; the "
                            "7260x7260 deviation tables would not fit in "
                            "memory\n")


def test_verify_refuses_bma_work_over_budget(hamming_file, capsys,
                                             monkeypatch):
    # h32: 8 nodes x 64 full-fiber pairs, and 2 x (4 basis members + 3
    # random probes) dense products of 8**3 steps: 7 680
    monkeypatch.setattr("casmat.cli.BMA_WORK_BUDGET", 7679)
    assert main(["verify", str(hamming_file), "--max-pairs", "3",
                 "--bma", "on"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0
    assert "7.7e+03" in captured.err and "--bma off" in captured.err
    # --bma auto skips them, as outside its caps
    code, report = run(capsys, "verify", str(hamming_file), "--max-pairs", "3")
    assert code == 0
    assert [c["status"] for c in report["checks"]
            if c["name"].startswith("bma")] == ["skipped"]
    assert main(["verify", str(hamming_file), "--max-pairs", "3",
                 "--bma", "off"]) == 0
    capsys.readouterr()
    monkeypatch.setattr("casmat.cli.BMA_WORK_BUDGET", 7680)
    for flag in ("auto", "on"):
        code, report = run(capsys, "verify", str(hamming_file),
                           "--max-pairs", "3", "--bma", flag)
        assert code == 0
        assert "bma2_composition_closure" in \
            [c["name"] for c in report["checks"]]


def test_bma_budget_refuses_before_any_check(tmp_path, capsys,
                                             no_verify_run):
    # sphere(1000, 20) with --bma on: 4.9e10 steps of BMA work
    path = tmp_path / "s1000.scheme"
    write_scheme(sphere_scheme(1000, 20), path)
    assert main(["verify", str(path), "--max-pairs", "50", "--bma", "on"]) \
        == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the BMA checks would take ")
    assert captured.err.strip().count("\n") == 0


def test_bma_budget_admits_unsigned_circle_at_the_auto_caps():
    # 61 labels, just under the auto label cap
    scheme = circle_scheme(120, 30, signed=False)
    assert scheme.label_count <= cli.BMA_AUTO_LABEL_CAP
    singletons, _ = resolve_borel_family(scheme, None)
    cli._check_verify_work(scheme, None, True, singletons)


@pytest.mark.parametrize("build", [
    lambda: sphere_scheme(600, 20, seed=5), lambda: cyclic_scheme(48),
    lambda: hamming_scheme(6, 2)], ids=["sphere600_20", "cyclic48",
                                        "hamming6_2"])
def test_sampled_fibers_stay_within_the_counted_work(build, monkeypatch):
    # a self-paired label's sample is closed under swaps, so it may hold
    # up to 2N pairs; the work check must count that many
    scheme = build()
    n, L = scheme.space.node_count, scheme.label_count
    singletons, _ = resolve_borel_family(scheme, None)
    self_paired = scheme.label_space.involution == np.arange(L)
    for max_pairs in (1, 7, 50, 400):
        bound = np.minimum(scheme.fiber_counts,
                           np.where(self_paired, 2 * max_pairs, max_pairs))
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            sizes = np.array([_sample_fiber(scheme, k, max_pairs, rng)[0].size
                              for k in range(L)])
            assert (sizes <= bound).all()
            if L == 21 and max_pairs == 50:
                # sphere(600, 20): most samples run past N
                assert (sizes > max_pairs).sum() >= 10
            # the counted work covers the pairs the sample holds
            monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET",
                                int(sizes.sum()) * n - 1)
            with pytest.raises(cli._Refusal):
                cli._check_verify_work(scheme, max_pairs, False, singletons)


@pytest.fixture
def no_hypergroup_run(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused hypergroup ran a check")

    for name in ("kernel_of_scheme", "verify_strong_cas"):
        monkeypatch.setattr(cli, name, no_work)


def test_hypergroup_refuses_an_oversized_table_up_front(tmp_path, capsys,
                                                        no_hypergroup_run):
    # cyclic(1000): an (L, L, L) float64 table of 8e9 bytes
    path = tmp_path / "c1000.scheme"
    write_scheme(cyclic_scheme(1000), path)
    started = time.perf_counter()
    code = main(["hypergroup", str(path)])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: hypergroup would build a "
                                   "1000x1000x1000 convolution table of "
                                   "8.0e+09 bytes")
    assert captured.err.strip().count("\n") == 0
    assert elapsed < 1.0


def test_hypergroup_refuses_cas_work_over_budget(hamming_file, capsys,
                                                 monkeypatch,
                                                 no_hypergroup_run):
    # h32: the one pass over every full fiber, which fills the table and
    # cas4_deviation, takes 8**3 steps
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 511)
    assert main(["hypergroup", str(hamming_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run 5.1e+02 CAS2 steps" in captured.err
    assert captured.err.strip().count("\n") == 0


def test_hypergroup_prices_its_probes_up_front(hamming_file, capsys,
                                              monkeypatch, no_hypergroup_run):
    def no_probes(*args, **kwargs):
        raise AssertionError("a refused hypergroup built its probes")

    monkeypatch.setattr(cli, "random_probe_pairs", no_probes)
    assert main(["hypergroup", str(hamming_file),
                 "--probes", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hypergroup would take 1.0e+16 "
                                   "steps for 99999999999 probes over 8 "
                                   "nodes")
    assert captured.err.strip().count("\n") == 0
    # the suggested count is the largest that fits
    fit = int(captured.err.split("--probes ")[1].split()[0])
    assert (cli._probe_work(8, fit) <= cli.BMA_WORK_BUDGET
            < cli._probe_work(8, fit + 1))


def test_default_probes_fit_every_admitted_hypergroup():
    # n = 1000 is the largest node count whose fiber pass is admitted
    n = round(cli.VERIFY_WORK_BUDGET ** (1 / 3))
    assert n**3 <= cli.VERIFY_WORK_BUDGET < (n + 1)**3
    default = cli.build_parser().parse_args(["hypergroup", "x"]).probes
    assert default == 10
    assert cli._probe_work(n, default) <= cli.BMA_WORK_BUDGET


def test_out_of_memory_is_a_refusal(tmp_path):
    # cyclic(100000) asks for a 37.3 GiB relation; the child's address
    # space is capped, so the allocation fails without touching memory
    out = tmp_path / "big.scheme"

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "casmat", "catalog", "cyclic", "--n", "100000",
         "--out", str(out)], capture_output=True, text=True, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate 37.3 GiB")
    assert proc.stderr.strip().count("\n") == 0
    assert not out.exists()


def test_a_sample_cap_beyond_int64_samples_nothing(hamming_file, capsys):
    code, huge = run(capsys, "verify", str(hamming_file),
                     "--max-pairs", "99999999999999999999")
    want_code, unsampled = run(capsys, "verify", str(hamming_file))
    assert code == want_code == 0
    assert huge["arguments"]["max_pairs"] == 99999999999999999999
    assert huge["checks"] == unsampled["checks"]


def test_digest_streams_the_file_in_blocks(tmp_path, capsys, monkeypatch):
    path = tmp_path / "blob"
    monkeypatch.setattr("casmat.errors._READ_BLOCK_BYTES", 7)
    for data, lines in ((b"", 0), (b"abcdefg", 0), (bytes(range(256)) * 3, 0),
                        (b"x\n\ny\r\n" * 50, 3)):
        path.write_bytes(data)
        # the digest reads on from wherever the reader stands
        for read in range(lines + 1):
            with _LineReader(path) as reader:
                for _ in range(read):
                    reader.next_content()
                assert reader.digest() == \
                    "sha256:" + hashlib.sha256(data).hexdigest()
    monkeypatch.undo()
    # cyclic(600) is a file of more than one default block
    path = tmp_path / "z600.scheme"
    code, report = run(capsys, "catalog", "cyclic", "--n", "600",
                       "--out", str(path))
    assert code == 0 and path.stat().st_size > errors._READ_BLOCK_BYTES
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


# text after the relation, the second more than the reader reads at once
@pytest.mark.parametrize("trailing", [b"", b"not a row\n" + b"1 2\n" * 40000])
@pytest.mark.parametrize("argv", [["verify"], ["correspond"],
                                  ["hypergroup", "--probes", "1"]])
def test_input_digest_is_the_sha256_of_the_file(tmp_path, capsys, argv,
                                                 trailing):
    path = tmp_path / "c120.scheme"
    code, report = run(capsys, "catalog", "cyclic", "--n", "120",
                       "--out", str(path))
    data = path.read_bytes()
    assert code == 0 and len(data) > errors._READ_BLOCK_BYTES
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(data).hexdigest()
    path.write_bytes(data + trailing)
    code, report = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(data + trailing).hexdigest()


def test_correspond_refuses_tolerance_grouping_over_cap(hamming_file, capsys,
                                                         monkeypatch):
    # h32 has 4 labels, so its indicator basis has 4 exact groups
    monkeypatch.setattr("casmat.correspondence._TOLERANCE_GROUP_CAP", 3)
    assert main(["correspond", str(hamming_file), "--tol", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0
    assert "4 exact groups" in captured.err and "tolerance 0" in captured.err
    # tolerance 0 merges nothing, so the cap does not apply
    assert run(capsys, "correspond", str(hamming_file))[0] == 0
    monkeypatch.setattr("casmat.correspondence._TOLERANCE_GROUP_CAP", 4)
    assert run(capsys, "correspond", str(hamming_file), "--tol", "1e-9")[0] == 0


@pytest.mark.parametrize("command,flags,named", [
    ("hypergroup", ["--probes", "0"], "--probes"),
    ("hypergroup", ["--probes", "-3"], "--probes"),
    ("verify", ["--tol", "nan"], "--tol"),
    ("verify", ["--tol=-1e-12"], "--tol"),
    ("verify", ["--tol", "inf"], "--tol"),
    ("correspond", ["--tol", "-0.5"], "--tol"),
    ("correspond", ["--tol", "nan"], "--tol"),
    ("hypergroup", ["--tol=-inf"], "--tol"),
    ("hypergroup", ["--tol", "nan"], "--tol"),
    ("verify", ["--diagonal-slack", "-1"], "--diagonal-slack"),
    ("verify", ["--max-pairs=-2"], "--max-pairs"),
    ("hypergroup", ["--seed=-1"], "--seed"),
    ("verify", ["--seed=-1"], "--seed"),
])
def test_bad_numeric_flags_exit_2_with_one_line(hamming_file, capsys,
                                                 command, flags, named):
    assert main([command, str(hamming_file), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0
    assert captured.err.startswith("error: " + named)


def test_bad_numeric_flag_is_refused_before_the_file_is_read(capsys):
    assert main(["verify", "no/such.scheme", "--tol", "nan"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_edge_numeric_flags_still_run(hamming_file, capsys):
    assert run(capsys, "verify", str(hamming_file), "--tol", "0",
               "--diagonal-slack", "0")[0] == 0
    assert run(capsys, "hypergroup", str(hamming_file), "--probes", "1")[0] == 0
    assert run(capsys, "correspond", str(hamming_file), "--tol", "0")[0] == 0


def test_negative_casmat_seed_is_usage_error(hamming_file, capsys,
                                             monkeypatch):
    monkeypatch.setenv("CASMAT_SEED", "-1")
    assert main(["hypergroup", str(hamming_file)]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and "CASMAT_SEED" in err


@pytest.mark.parametrize("label", ["4", "-1"])
def test_borel_family_label_out_of_range_is_usage_error(tmp_path,
                                                        hamming_file, capsys,
                                                        label):
    fam = tmp_path / "family.txt"
    fam.write_text(f"0 1\n0 {label}\n")
    code = main(["verify", str(hamming_file), "--borel-family",
                 f"file:{fam}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0
    assert captured.err.startswith(f"error: unknown label {label} ")
    assert f"(0, {label})" in captured.err


@pytest.mark.parametrize("spec, named", [
    ("circle nodes=12 bins=4 signed=True", "signed="),
    ("circle nodes=12 bins=4 sigend=false", "sigend="),
    ("cyclic n=6 m=3", "m="),
    ("cyclic n=6 n=7", "n="),
    ("sphere nodes=20 bins=4 quadrature=x.txt", "quadrature="),
])
def test_catalog_recipe_misread_parameter_is_usage_error(tmp_path, capsys,
                                                          spec, named):
    out = tmp_path / "x.scheme"
    code = main(["catalog", "recipe", "--spec", spec, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0
    assert named in captured.err
    assert not out.exists()


def _tetrahedron_quadrature(path, bad=None):
    """A 4-node quadrature file of unit 3-vectors; bad replaces one
    coordinate of the last node."""
    nodes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float) / np.sqrt(3.0)
    rows = [" ".join(["1.0"] + [repr(float(v)) for v in node])
            for node in nodes]
    if bad is not None:
        rows[-1] = " ".join(rows[-1].split()[:-1] + [bad])
    path.write_text("#casmat-quadrature v1\n" + "\n".join(rows) + "\n")
    return path


def test_catalog_sphere_nodes_with_quadrature_is_usage_error(tmp_path,
                                                             capsys):
    quad = _tetrahedron_quadrature(tmp_path / "q.txt")
    out = tmp_path / "x.scheme"
    code = main(["catalog", "sphere", "--nodes", "20", "--quadrature",
                 str(quad), "--bins", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0
    assert "nodes=" in captured.err and "quadrature=" in captured.err
    assert not out.exists()
    # either flag alone still builds
    assert main(["catalog", "sphere", "--quadrature", str(quad), "--bins",
                 "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_catalog_sphere_refuses_non_finite_quadrature_node(tmp_path, capsys,
                                                           bad):
    quad = _tetrahedron_quadrature(tmp_path / "q.txt", bad=bad)
    out = tmp_path / "x.scheme"
    code = main(["catalog", "sphere", "--quadrature", str(quad), "--bins",
                 "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: node 3 is not a unit vector")
    assert captured.err.strip().count("\n") == 0
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bins", [[], ["--bins", "3"]])
def test_catalog_delsarte_refuses_overflowing_squares(tmp_path, capsys, bins):
    metric = tmp_path / "metric.txt"
    np.savetxt(metric, [[0.0, 1e200, 2e200], [1e200, 0.0, 3e200],
                        [2e200, 3e200, 0.0]])
    out = tmp_path / "x.scheme"
    code = main(["catalog", "delsarte", "--metric", str(metric), *bins,
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: squared distance 3e+200**2 ")
    assert captured.err.strip().count("\n") == 0
    assert not out.exists()


# every site that refuses a run: its argv and what to patch (an attribute,
# or the CASMAT_SEED environment variable) to reach it cheaply
REFUSALS = {
    "missing file": (["verify", "{tmp}/nope.scheme"], {}),
    "parse error": (["verify", "{junk}"], {}),
    "bad family": (["verify", "{h32}", "--borel-family", "frob"], {}),
    "family over 5e7": (["verify", "{c120}", "--borel-family", "pairs"], {}),
    "empty stored family": (["verify", "{nobins}", "--borel-family", "bins"],
                            {}),
    # h32's recipe certifies its symmetry: one base row, 8 x 8 steps
    "cas2 budget": (["verify", "{h32}"],
                    {"casmat.cli.VERIFY_WORK_BUDGET": 63}),
    "bma budget": (["verify", "{h32}", "--max-pairs", "3", "--bma", "on"],
                   {"casmat.cli.BMA_WORK_BUDGET": 7679}),
    "hypergroup cap": (["hypergroup", "{h32}"],
                       {"casmat.cli.HYPERGROUP_TABLE_BYTES": 511}),
    "grouping cap": (["correspond", "{h32}", "--tol", "1e-9"],
                     {"casmat.correspondence._TOLERANCE_GROUP_CAP": 3}),
    "bad recipe": (["catalog", "recipe", "--spec", "cyclic m=3", "--out",
                    "{tmp}/x.scheme"], {}),
    "bad CASMAT_SEED": (["verify", "{h32}"], {"CASMAT_SEED": "abc"}),
    "--tol": (["correspond", "{h32}", "--tol", "nan"], {}),
    "--diagonal-slack": (["verify", "{h32}", "--diagonal-slack", "-1"], {}),
    "--seed": (["hypergroup", "{h32}", "--seed=-1"], {}),
    "--max-pairs": (["verify", "{h32}", "--max-pairs", "0"], {}),
    "--probes": (["hypergroup", "{h32}", "--probes", "0"], {}),
    "verify --report": (["verify", "{h32}", "--report", "{tmp}/no/r.json"],
                        {}),
    "catalog --report": (["catalog", "cyclic", "--n", "5", "--out",
                          "{tmp}/y.scheme", "--report", "{tmp}/no/r.json"],
                         {}),
}


@pytest.mark.parametrize("argv, patches", REFUSALS.values(), ids=REFUSALS)
def test_every_refusal_exits_2_with_one_error_line(tmp_path, hamming_file,
                                                   capsys, monkeypatch, argv,
                                                   patches):
    junk = tmp_path / "junk.scheme"
    junk.write_text("#casmat-scheme v1\nnodes two\n")
    c120 = tmp_path / "c120.scheme"
    if "{c120}" in argv:
        write_scheme(circle_scheme(120, 30), c120)
    nobins = tmp_path / "nobins.scheme"
    if "{nobins}" in argv:
        c5 = cyclic_scheme(5)
        write_scheme(Scheme(c5.space, c5.label_space, c5.relation,
                            borel_bins=()), nobins)
    for target, value in patches.items():
        if target == "CASMAT_SEED":
            monkeypatch.setenv(target, value)
        else:
            monkeypatch.setattr(target, value)
    argv = [a.format(tmp=tmp_path, junk=junk, h32=hamming_file, c120=c120,
                     nobins=nobins) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # no report on stdout: a report there means exit 0 or 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
