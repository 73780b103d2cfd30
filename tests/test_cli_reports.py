"""Witnesses in the CLI's JSON reports.

Each kind of witness is driven through ``main`` and its report parsed
back, so each value in it must be one that ``json.dumps`` writes as it
is: a Python int, float, str, list, tuple or dict with str keys.
"""

import json

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, cyclic_scheme, make_quadrature,
                    sphere_scheme, write_scheme)
from casmat.cli import main


def _run(capsys, *argv):
    """(exit code, the report parsed back, checks by name)."""
    code = main(list(argv))
    report = json.loads(capsys.readouterr().out)
    return code, report, {c["name"]: c for c in report["checks"]}


def _scheme_file(path, scheme):
    write_scheme(scheme, path)
    return str(path)


def test_structural_witnesses_parse(tmp_path, capsys):
    # cyclic(6) with (0, 1) moved into the identity label: CAS1 and CAS3
    scheme = cyclic_scheme(6)
    rel = np.array(scheme.relation)
    rel[0, 1] = 0
    path = _scheme_file(tmp_path / "c.scheme",
                        Scheme(scheme.space, scheme.label_space, rel))
    code, _, checks = _run(capsys, "verify", path)
    assert code == 1
    assert checks["cas1_diagonal"]["witnesses"] == [
        {"pair": [0, 1], "label": 0}]
    assert checks["cas3_transpose"]["witnesses"] == [
        {"pair": [0, 1], "label": 0, "transposed_label": 5},
        {"pair": [1, 0], "label": 5, "transposed_label": 0}]


def test_quantitative_witnesses_parse(tmp_path, capsys):
    path = _scheme_file(tmp_path / "s.scheme", sphere_scheme(40, 4, seed=2))
    code, _, checks = _run(capsys, "verify", path)
    assert code == 1
    (cas2,) = checks["cas2_intersection_constancy"]["witnesses"]
    assert sorted(cas2) == ["W", "W_prime", "deviation", "fiber_label",
                            "max_value", "min_value"]
    assert type(cas2["fiber_label"]) is int
    assert all(type(i) is int for i in cas2["W"] + cas2["W_prime"])
    assert cas2["deviation"] == checks["cas2_intersection_constancy"][
        "residual"] == cas2["max_value"] - cas2["min_value"]
    (valency,) = checks["row_valency_constancy"]["witnesses"]
    assert sorted(valency) == ["label", "max_row_mass", "min_row_mass"]
    assert type(valency["label"]) is int
    assert valency["max_row_mass"] > valency["min_row_mass"]


def _folded_cyclic6():
    """cyclic(6) with d and 6 - d merged into one label."""
    d = np.array(cyclic_scheme(6).relation)
    return Scheme(make_quadrature(np.ones(6)),
                  LabelSpace(involution=np.arange(4), identity_label=0),
                  np.minimum(d, 6 - d))


@pytest.mark.parametrize("original, recovered, witness", [
    # a recovered partition finer than the original splits a label
    (_folded_cyclic6, lambda: cyclic_scheme(6),
     {"pair": [0, 4], "original_label": 2, "recovered_label": 4}),
    # a coarser one merges labels, so only the counts differ
    (lambda: cyclic_scheme(6), _folded_cyclic6,
     {"detail": "label counts differ", "original": 6, "recovered": 4}),
])
def test_roundtrip_witnesses_parse(tmp_path, capsys, monkeypatch, original,
                                   recovered, witness):
    path = _scheme_file(tmp_path / "o.scheme", original())
    twin = recovered()
    monkeypatch.setattr("casmat.correspondence.scheme_of_algebra",
                        lambda alg, tolerance: twin)
    code, _, checks = _run(capsys, "correspond", path)
    assert code == 1
    assert checks["partition_roundtrip"]["witnesses"] == [witness]
    (bijection,) = checks["label_bijection"]["witnesses"]
    assert list(bijection) == [str(k) for k in range(original().label_count)]
    assert all(type(v) is int for v in bijection.values())
