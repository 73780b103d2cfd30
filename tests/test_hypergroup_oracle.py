"""Differential tests of verify_strong_cas's identity checks against
per-entry loops.

verify_strong_cas reads every identity off the (L, L, L) convolution table
as one array expression or a loop of (L, L) slabs. The oracle below reads
the same table one label pair, or one node, at a time. The unit,
anti-automorphism and commutativity residuals take the same elementwise
operations and sum along the same axis in the same order, so they must
agree exactly; the pullback and transport residuals are summed in another
order and agree within 1e-12.

Schemes: the random weighted, non-symmetric and corrupted schemes of the
joint-table oracle (the Markov kernel built with an infinite row-mass
tolerance, so the corrupted ones are accepted), and cyclic(7), each with
real and complex probe pairs.
"""

import numpy as np
import pytest

from casmat import (Kernel, cyclic_scheme, kernel_of_scheme, matmul,
                    random_probe_pairs, verify_strong_cas)
from casmat.hypergroup import convolution_table
from casmat.scheme import row_masses
from test_joint_table_oracle import CASES, random_scheme

EXACT = ("identity_convolution", "anti_automorphism", "commutativity_tv")
ROUNDED = ("pullback_convolution", "transport")


def oracle_convolve(hg, table, f, g):
    """(f * g)[i] = sum_{i'} haar[i'] <table[i, i'], f> g[i'^T], term by
    term."""
    L = hg.label_count
    inv = hg.involution
    out = np.zeros(L, dtype=np.result_type(f, g, float))
    for i in range(L):
        acc = 0.0
        for ip in range(L):
            acc = acc + (hg.haar_weights[ip] * np.dot(table[i, ip], f)
                         * g[inv[ip]])
        out[i] = acc
    return out


def oracle_residuals(hg, probes, test_function_count=5, seed=0):
    scheme = hg.scheme
    rel = scheme.relation
    w = scheme.space.weights
    n = scheme.space.node_count
    L = hg.label_count
    inv = hg.involution
    table, _ = convolution_table(hg)
    out = {}

    i0 = scheme.label_space.identity_label
    res = 0.0
    for i in range(L):
        delta = np.zeros(L)
        delta[i] = 1.0
        res = max(res, float(np.abs(table[i0, i] - delta).max()))
        res = max(res, float(np.abs(table[i, i0] - delta).max()))
    out["identity_convolution"] = res

    res = 0.0
    for f, g in probes:
        lhs = matmul(Kernel(f[rel], scheme.space),
                     Kernel(g[rel], scheme.space)).entries
        rhs = oracle_convolve(hg, table, f, g)[rel]
        res = max(res, float(np.abs(lhs - rhs).max()))
    out["pullback_convolution"] = res

    rng = np.random.default_rng(seed)
    test_functions = [rng.uniform(-1.0, 1.0, n)
                      for _ in range(test_function_count)]
    rowints = [row_masses(scheme, w * phi) for phi in test_functions]
    res = 0.0
    for f, _ in probes:
        for phi, rowint in zip(test_functions, rowints):
            for x in range(n):
                lhs = np.dot(f, rowint[x])
                rhs = np.dot(w, f[rel[x]] * phi)
                res = max(res, abs(lhs - rhs))
    out["transport"] = res

    res = 0.0
    for i in range(L):
        for ip in range(L):
            lhs = table[i, ip][inv]
            rhs = table[inv[ip], inv[i]]
            res = max(res, float(np.abs(lhs - rhs).max()))
    out["anti_automorphism"] = res

    tv = 0.0
    for i in range(L):
        for ip in range(i + 1, L):
            tv = max(tv, 0.5 * float(np.abs(table[i, ip]
                                            - table[ip, i]).sum()))
    out["commutativity_tv"] = tv
    return out


def probe_pairs(L, kind, seed):
    pairs = random_probe_pairs(L, 4, seed=seed)
    if kind == "complex":
        pairs = [(f + 1j * g, g - 0.5j * f) for f, g in pairs]
    return pairs


def agree(hg, probes):
    report = verify_strong_cas(hg, probes, tolerance=1e-12, seed=5)
    want = oracle_residuals(hg, probes, seed=5)
    for name in EXACT:
        assert report.residuals[name] == want[name], name
    for name in ROUNDED:
        assert abs(report.residuals[name] - want[name]) <= 1e-12, name
    return report


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("seed,integer_weights,corrupt,N", CASES)
def test_identities_match_oracle_on_random_schemes(seed, integer_weights,
                                                   corrupt, N, kind):
    scheme, _, _ = random_scheme(seed, integer_weights, corrupt, N)
    hg = kernel_of_scheme(scheme, tolerance=np.inf)
    agree(hg, probe_pairs(hg.label_count, kind, seed))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_identities_match_oracle_on_cyclic7(kind):
    hg = kernel_of_scheme(cyclic_scheme(7))
    report = agree(hg, probe_pairs(7, kind, 11))
    assert report.passed()
