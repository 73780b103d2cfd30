"""The shared whole-fiber pass against one fiber lookup and one reduction
per label.

structure_constants, verify_bma and verify_strong_cas read every fiber's
(sum, min, max) tables, and the BMA the largest entry of h - h^T, from
_whole_fibers. For each label in order it must yield exactly what
fiber() (np.nonzero on a cell matrix, which has no Scheme) followed by a
fresh _table_reduction gives: the same pairs in the same order and the
same tables, bit for bit, whatever the row block of the fiber scan.
"""

import numpy as np
import pytest

from casmat import AlgebraBasis, algebra_of_scheme, fiber
from casmat import scheme as scheme_module
from casmat.scheme import _table_reduction, _whole_fibers
from test_joint_table_oracle import CASES, random_scheme

# rows a block of the fiber scan: one, three, and the default
BLOCKS = [1, 3, None]


def check_against_fresh_calls(lab, w, L, find):
    for skew in (False, True):
        got = list(_whole_fibers(lab, w, L, skew=skew))
        assert len(got) == L
        for k, out in enumerate(got):
            xs, zs = find(k)
            want = (xs, zs, *_table_reduction(lab, w, xs, zs, L, skew=skew))
            assert len(out) == len(want) == (6 if skew else 5)
            for g, e in zip(out, want):
                g, e = np.asarray(g), np.asarray(e)
                assert g.dtype == e.dtype and g.shape == e.shape, k
                assert g.tobytes() == e.tobytes(), (k, g, e)


def set_block(monkeypatch, rows, n):
    if rows is not None:
        monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", rows * n)


@pytest.mark.parametrize("rows", BLOCKS)
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_scheme_fibers_match_fiber_and_reduction(seed, integer_weights,
                                                 corrupt, N, rows,
                                                 monkeypatch):
    set_block(monkeypatch, rows, N)
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    check_against_fresh_calls(scheme.relation, scheme.space.weights,
                              scheme.label_count,
                              lambda k: fiber(scheme, k))


@pytest.mark.parametrize("rows", BLOCKS)
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_dense_indicator_cells_match_nonzero_and_reduction(
        seed, integer_weights, corrupt, N, rows, monkeypatch):
    set_block(monkeypatch, rows, N)
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    cell_form = algebra_of_scheme(scheme)
    dense = AlgebraBasis(basis=[cell_form.basis[k]
                                for k in range(cell_form.size)])
    lab = dense.cells
    assert lab.dtype == np.int32 and not dense.cell_form
    check_against_fresh_calls(lab, scheme.space.weights, dense.size,
                              lambda k: np.nonzero(lab == k))
