"""The shared whole-fiber pass against one fiber lookup and one reduction
per label.

structure_constants, verify_bma and verify_strong_cas read every fiber's
(sum, min, max, first-pair) tables, and the BMA the largest entry of
h - h^T, from _whole_fibers. For each label in order it must yield exactly what
fiber() (np.nonzero on a cell matrix, which has no Scheme) followed by a
fresh _table_reduction gives: the same pairs in the same order and the
same tables, bit for bit, whatever the row block of the fiber scan.
"""

import numpy as np
import pytest

from casmat import (AlgebraBasis, algebra_of_scheme, convolve_measure_point,
                    convolve_point_masses, fiber, hamming_scheme,
                    kernel_of_scheme, random_probe_pairs, structure_constants,
                    verify_strong_cas)
from casmat import bma as bma_module
from casmat import hypergroup as hypergroup_module
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
            assert len(out) == len(want) == (7 if skew else 6)
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


def test_first_pair_tables_are_built_once(monkeypatch):
    # the pass hands out each fiber's first-pair table, so no caller
    # builds it again with joint_table; the first-pair scan of
    # convolve_measure_point builds one table a label of mu's support
    scheme = hamming_scheme(3, 2)
    hg = kernel_of_scheme(scheme)
    L = hg.label_count
    calls = []
    for module in (scheme_module, hypergroup_module):
        own = module.joint_table
        monkeypatch.setattr(module, "joint_table",
                            lambda *a, _own=own: calls.append(a) or _own(*a))
    assert not hasattr(bma_module, "joint_table")
    verify_strong_cas(hg, random_probe_pairs(L, 2), 1e-9)
    structure_constants(algebra_of_scheme(scheme))
    convolve_point_masses(hg, L - 1, 1)
    assert calls == []
    mu = np.zeros(L)
    mu[[0, L - 1]] = 0.5
    convolve_measure_point(hg, mu, 1)
    assert len(calls) == 2
