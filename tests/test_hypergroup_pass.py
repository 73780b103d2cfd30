"""Differential tests of the hypergroup's one pass over every fiber.

verify_strong_cas reduces each fiber once. The convolution table is read
off each fiber's first pair, representative_spread is the spread over the
whole fiber and cas4_deviation comes from the fiber means. The tests below
compare these with three independent sources:

- the structure constants of the scheme's indicator algebra, whose first
  pair per fiber the table must equal bit for bit once reoriented;
- a brute-force loop over every pair of every fiber for the spread;
- verify_cas for the CAS4 deviation, which it reads from the same means
  (exact on integer weights; within 1e-12 otherwise, because verify_cas
  reads the fiber of k^T as the transpose of the fiber of k, in another
  pair order).

Schemes: the random weighted, non-symmetric and corrupted schemes of the
joint-table oracle, and cyclic(7), hamming(3, 2) and circle(24, 6).
"""

import numpy as np
import pytest

from casmat import (algebra_of_scheme, circle_scheme, convolve_functions,
                    convolve_measure_point, convolve_point_masses,
                    cyclic_scheme, hamming_scheme, kernel_of_scheme,
                    random_probe_pairs, structure_constants, verify_cas,
                    verify_strong_cas)
from casmat import hypergroup as hypergroup_module
from casmat import scheme as scheme_module
from casmat.hypergroup import convolution_table
from test_joint_table_oracle import CASES, random_scheme

SCHEMES = [pytest.param(lambda c=c: random_scheme(*c.values)[0],
                        c.values[1], id=c.id) for c in CASES] + [
    pytest.param(lambda: cyclic_scheme(7), True, id="cyclic7"),
    pytest.param(lambda: hamming_scheme(3, 2), True, id="hamming32"),
    pytest.param(lambda: circle_scheme(24, 6), False, id="circle24")]
CATALOG = SCHEMES[len(CASES):]


def oracle_spread(hg):
    """max over every fiber pair's joint table h of (max - min over the
    fiber of h[k, j]) / haar[j^T], one pair and one node at a time."""
    scheme = hg.scheme
    rel = scheme.relation.tolist()
    w = scheme.space.weights.tolist()
    n, L = scheme.space.node_count, hg.label_count
    inv = hg.involution.tolist()
    worst = 0.0
    for i in range(L):
        tables = []
        for x in range(n):
            for z in range(n):
                if rel[x][z] != i:
                    continue
                h = [[0.0] * L for _ in range(L)]
                for y in range(n):
                    h[rel[x][y]][rel[y][z]] += w[y]
                tables.append(h)
        for k in range(L):
            for j in range(L):
                cell = [h[k][j] for h in tables]
                worst = max(worst, (max(cell) - min(cell))
                            / hg.haar_weights[inv[j]])
    return worst


def report(hg):
    return verify_strong_cas(hg, random_probe_pairs(hg.label_count, 2),
                             tolerance=1e-12)


@pytest.mark.parametrize("build,integer_weights", SCHEMES)
def test_table_is_the_reoriented_structure_constants(build, integer_weights):
    hg = kernel_of_scheme(build(), tolerance=np.inf)
    tensor, _ = structure_constants(algebra_of_scheme(hg.scheme))
    table, _ = convolution_table(hg)
    inv = hg.involution
    for i in range(hg.label_count):
        want = tensor[:, inv, i].T / hg.haar_weights[:, None]
        assert np.array_equal(table[i], want), i


@pytest.mark.parametrize("build,integer_weights", SCHEMES)
def test_representative_spread_is_the_whole_fiber_spread(build,
                                                         integer_weights):
    hg = kernel_of_scheme(build(), tolerance=np.inf)
    want = oracle_spread(hg)
    # each cell sums in increasing y, as the oracle does: exact for any
    # weights
    assert convolution_table(hg)[1] == want
    assert report(hg).representative_spread == want


@pytest.mark.parametrize("build,integer_weights", SCHEMES)
def test_cas4_deviation_matches_verify_cas(build, integer_weights):
    hg = kernel_of_scheme(build(), tolerance=np.inf)
    got = report(hg).residuals["cas4_deviation"]
    want = verify_cas(hg.scheme).cas4_max_deviation
    if integer_weights:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12


def counting(monkeypatch, module, name, log, size=lambda *a: None):
    own = getattr(module, name)

    def counted(*args, **kwargs):
        log.append((name, size(*args)))
        return own(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("build,integer_weights", CATALOG)
def test_each_function_does_its_own_fiber_work(build, integer_weights,
                                               monkeypatch):
    hg = kernel_of_scheme(build())
    L = hg.label_count
    log = []
    assert not hasattr(hypergroup_module, "verify_cas")
    counting(monkeypatch, scheme_module, "verify_cas", log)
    # the whole-fiber pass in scheme.py finds and reduces the fibers;
    # convolve_point_masses reduces its representatives itself
    counting(monkeypatch, scheme_module, "_fiber_scan", log)
    for module in (scheme_module, hypergroup_module):
        counting(monkeypatch, module, "_table_reduction", log,
                 lambda rel, w, xs, zs, K: len(xs))
    counting(monkeypatch, hypergroup_module, "_fiber_scan", log,
             lambda relation, i, count: count)

    # one fiber and one reduction a label, over every pair; no verify_cas
    report(hg)
    assert [entry for entry, _ in log] \
        == ["_fiber_scan", "_table_reduction"] * L
    assert sum(pairs for entry, pairs in log if pairs is not None) \
        == hg.scheme.space.node_count ** 2

    for max_reps in (1, 3, 8):
        log.clear()
        convolve_point_masses(hg, L - 1, 1, max_reps=max_reps)
        reps = min(max_reps, int(hg.scheme.fiber_counts[L - 1]))
        assert log == [("_fiber_scan", reps),
                       ("_table_reduction", reps)]

    # one pair a label, and no reduction
    log.clear()
    convolve_measure_point(hg, np.ones(L), 1)
    assert log == [("_fiber_scan", 1)] * L
    log.clear()
    convolve_functions(hg, np.ones(L), np.ones(L))
    assert log == [("_fiber_scan", 1)] * L
