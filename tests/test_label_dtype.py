"""The relation dtype rule: uint8 up to 256 labels, uint16 up to 65 536,
int32 beyond, at both sides of each boundary and at the top label of a
uint8 relation."""

import numpy as np
import pytest

from casmat import (LabelSpace, Scheme, intersection_number, label_dtype,
                    make_quadrature, read_scheme, verify_cas, write_scheme)
from casmat import scheme as scheme_module
from casmat.scheme import (_label_map, _table_reduction, joint_table,
                           row_masses)


@pytest.mark.parametrize("L, dtype", [
    (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
    (65537, np.int32), (2**31, np.int32)])
def test_label_dtype_is_the_narrowest_that_holds_the_labels(L, dtype):
    assert label_dtype(L) == dtype
    assert np.iinfo(dtype).max >= L - 1


@pytest.mark.parametrize("L, dtype", [
    (256, np.uint8), (257, np.uint16), (65536, np.uint16),
    (65537, np.int32)])
def test_boundary_schemes_round_trip_byte_identically(tmp_path, L, dtype):
    n = 257  # n * n = 66 049 entries cover every label up to 65 537
    rel = (np.arange(n * n) % L).reshape(n, n)
    scheme = Scheme(make_quadrature(np.ones(n)),
                    LabelSpace(involution=np.arange(L)), rel)
    assert scheme.relation.dtype == dtype
    assert scheme.relation.max() == L - 1
    first, second = tmp_path / "a.scheme", tmp_path / "b.scheme"
    write_scheme(scheme, first)
    back = read_scheme(first)
    assert back.relation.dtype == dtype
    assert np.array_equal(back.relation, rel)
    write_scheme(back, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("bad", [256, 261, -1, 2**32])
def test_label_range_is_checked_before_narrowing(bad):
    rel = np.arange(16).reshape(4, 4) % 5
    rel[1, 2] = bad
    with pytest.raises(ValueError, match="0..label_count-1"):
        Scheme(make_quadrature(np.ones(4)),
               LabelSpace(involution=np.arange(5)), rel)


def test_constructor_copies_and_never_freezes_the_callers_array():
    rel = np.arange(16).reshape(4, 4)
    scheme = Scheme(make_quadrature(np.ones(4)),
                    LabelSpace(involution=np.arange(16)), rel)
    assert rel.flags.writeable and scheme.relation.dtype == np.uint8
    rel[0, 0] = 5
    assert scheme.relation[0, 0] == 0
    narrow = np.arange(16, dtype=np.uint8).reshape(4, 4)
    scheme = Scheme(scheme.space, scheme.label_space, narrow)
    assert narrow.flags.writeable
    assert not np.shares_memory(scheme.relation, narrow)


def _top_label_scheme():
    """16 nodes, 256 labels, each label on one pair: label 255 at (15, 15)."""
    n = 16
    w = np.arange(1.0, n + 1)
    return Scheme(make_quadrature(w), LabelSpace(involution=np.arange(256)),
                  np.arange(n * n).reshape(n, n))


def _label_results(scheme):
    rel, w = scheme.relation, scheme.space.weights
    xs, zs = np.array([15, 3]), np.array([15, 7])
    index = _label_map([(255,), (253, 254)], 256)
    stats = (_table_reduction(rel, w, xs, zs, 256)
             + _table_reduction(rel, w, xs, zs, 3, index, index))
    return (verify_cas(scheme).as_dict(), row_masses(scheme).tolist(),
            intersection_number(scheme, [255], [254, 255], 255),
            [a.tolist() for a in stats])


def test_top_label_of_a_uint8_relation_does_not_wrap(monkeypatch):
    narrow = _top_label_scheme()
    rel, w = narrow.relation, narrow.space.weights
    assert rel.dtype == np.uint8 and rel[15, 15] == 255
    # 255 * 256 + 255 wraps to 255 in uint8; the table must not
    table = joint_table(rel[15], rel[:, 15], w, 256)
    assert table[255, 255] == w[15]
    assert np.count_nonzero(table) == 16
    monkeypatch.setattr(scheme_module, "label_dtype",
                        lambda L: np.dtype(np.int32))
    wide = _top_label_scheme()
    assert wide.relation.dtype == np.int32
    assert _label_results(narrow) == _label_results(wide)
