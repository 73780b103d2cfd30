"""The joint-table, BMA, character-partition and hypergroup oracle suites,
rerun with every relation held in a wider label dtype.

A relation is kept in label_dtype(label_count), which is uint8 for every
scheme those suites build. Here label_dtype is widened to uint16 and to
int32, and each suite's tests are collected again under that fixture, so
their exact agreement with the oracles must hold whatever dtype the labels
are held in: no arithmetic on label values may depend on it.
"""

import numpy as np
import pytest

import test_bma_oracle
import test_character_partition_oracle
import test_hypergroup_oracle
import test_joint_table_oracle
from casmat import cyclic_scheme, read_scheme, write_scheme
from casmat import scheme as scheme_module

SUITES = (test_joint_table_oracle, test_bma_oracle,
          test_character_partition_oracle, test_hypergroup_oracle)

# the character-partition suite builds its catalog schemes at import,
# under the default rule; they are built again once per wide dtype
_CATALOGS = {}


@pytest.fixture(autouse=True, params=[np.uint16, np.int32],
                ids=["uint16", "int32"])
def wide_labels(request, monkeypatch):
    wide = np.dtype(request.param)
    rule = scheme_module.label_dtype
    monkeypatch.setattr(scheme_module, "label_dtype",
                        lambda L: np.promote_types(rule(L), wide))
    if wide not in _CATALOGS:
        _CATALOGS[wide] = test_character_partition_oracle.catalog_schemes()
    monkeypatch.setattr(test_character_partition_oracle, "CATALOG",
                        _CATALOGS[wide])
    return wide


def test_builders_and_reader_take_the_wide_dtype(wide_labels, tmp_path):
    scheme = cyclic_scheme(5)
    assert scheme.relation.dtype == wide_labels
    write_scheme(scheme, tmp_path / "c5.scheme")
    assert read_scheme(tmp_path / "c5.scheme").relation.dtype == wide_labels
    for s in test_character_partition_oracle.CATALOG.values():
        assert s.relation.dtype == wide_labels


# every test of the suites, collected again in this module
for _suite in SUITES:
    for _name, _test in vars(_suite).items():
        if _name.startswith("test_"):
            assert _name not in globals(), _name
            globals()[_name] = _test
