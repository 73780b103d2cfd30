import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from casmat import (Scheme, circle_scheme, read_scheme, sphere_scheme,
                    write_scheme)
from casmat import cli
from casmat.cli import main


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


def test_missing_file_exits_2(capsys):
    code = main(["verify", "/nonexistent/x.scheme"])
    assert code == 2


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.scheme"
    path.write_text("#casmat-scheme v1\nnodes two\n")
    code = main(["verify", str(path)])
    assert code == 2


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


def test_hypergroup_hamming(hamming_file, capsys):
    code, report = run(capsys, "hypergroup", str(hamming_file),
                       "--probes", "10", "--tol", "1e-12")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("identity_convolution", "pullback_convolution",
                 "transport", "anti_automorphism"):
        assert by_name[name]["status"] == "pass"
        assert by_name[name]["residual"] <= 1e-12


def test_borel_family_from_file(tmp_path, hamming_file, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("# one set per line\n0 1\n2 3\n1\n")
    code, report = run(capsys, "verify", str(hamming_file),
                       "--borel-family", f"file:{fam}")
    assert code == 0


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


def test_catalog_recipe_missing_parameter_is_usage_error(tmp_path, capsys):
    code = main(["catalog", "recipe", "--spec", "cyclic",
                 "--out", str(tmp_path / "x.scheme")])
    assert code == 2
    err = capsys.readouterr().err
    assert "n=" in err and "Traceback" not in err
    assert not (tmp_path / "x.scheme").exists()


def test_catalog_kinds_write_their_recipe_files(tmp_path, capsys):
    # each kind goes through the recipe dispatch; the file records the
    # recipe that rebuilds it byte for byte, input paths with spaces too
    from casmat import make_quadrature, write_quadrature
    spaced = tmp_path / "dir with space"
    spaced.mkdir()
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    write_quadrature(make_quadrature(np.ones(6), coordinates=octahedron),
                     spaced / "q.txt")
    np.savetxt(spaced / "metric.txt", 1.0 - np.eye(3))
    for argv in (["cyclic", "--n", "5"], ["hamming", "--d", "2", "--q", "3"],
                 ["group", "--generator", "1, 2,0"],
                 ["circle", "--nodes", "12", "--bins", "4", "--unsigned"],
                 ["sphere", "--nodes", "20", "--bins", "4", "--seed", "3"],
                 ["sphere", "--quadrature", str(spaced / "q.txt"),
                  "--bins", "3"],
                 ["delsarte", "--metric", str(spaced / "metric.txt")]):
        direct = tmp_path / "direct.scheme"
        again = tmp_path / "again.scheme"
        assert run(capsys, "catalog", *argv, "--out", str(direct))[0] == 0
        recipe = direct.read_text().splitlines()[1]
        assert recipe.startswith("recipe " + argv[0])
        assert run(capsys, "catalog", "recipe", "--spec",
                   recipe[len("recipe "):], "--out", str(again))[0] == 0
        assert again.read_bytes() == direct.read_bytes()


def test_bad_casmat_seed_is_usage_error(hamming_file, capsys, monkeypatch):
    monkeypatch.setenv("CASMAT_SEED", "abc")
    assert main(["verify", str(hamming_file)]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and "CASMAT_SEED" in err
    assert main(["hypergroup", str(hamming_file)]) == 2
    # an explicit --seed does not read the environment
    assert main(["verify", str(hamming_file), "--seed", "3"]) == 0


def test_verify_refuses_work_over_budget(hamming_file, capsys, monkeypatch):
    # h32: 8 nodes, 4 labels, 64 fiber pairs -> 512 pair x node steps
    monkeypatch.setattr("casmat.cli.VERIFY_WORK_BUDGET", 100)
    assert main(["verify", str(hamming_file)]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0
    assert "5.1e+02" in err and "--max-pairs 3" in err
    # the suggested sample fits the budget: 4 labels x 3 pairs x 8 nodes
    assert main(["verify", str(hamming_file), "--max-pairs", "3"]) == 0
    capsys.readouterr()
    assert main(["verify", str(hamming_file), "--max-pairs", "0"]) == 2
    assert "--max-pairs must be at least 1" in capsys.readouterr().err


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


def test_bma_budget_refuses_before_any_check(tmp_path, capsys, monkeypatch):
    # sphere(1000, 20) with --bma on: 4.9e10 steps of BMA work
    path = tmp_path / "s1000.scheme"
    write_scheme(sphere_scheme(1000, 20), path)

    def no_work(*args, **kwargs):
        raise AssertionError("a refused verify ran a check")

    for name in ("verify_cas", "algebra_of_scheme", "default_probes"):
        monkeypatch.setattr(cli, name, no_work)
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
    assert cli._check_verify_work(scheme, None, True) is None


def test_digest_streams_the_file_in_blocks(tmp_path, capsys, monkeypatch):
    path = tmp_path / "blob"
    monkeypatch.setattr("casmat.cli._DIGEST_BLOCK_BYTES", 7)
    for data in (b"", b"abcdefg", bytes(range(256)) * 3):
        path.write_bytes(data)
        assert cli._digest(path) == \
            "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    monkeypatch.undo()
    # cyclic(600) is a file of more than one default block
    path = tmp_path / "z600.scheme"
    code, report = run(capsys, "catalog", "cyclic", "--n", "600",
                       "--out", str(path))
    assert code == 0 and path.stat().st_size > cli._DIGEST_BLOCK_BYTES
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


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
