"""Refusals of counts and widths that no check can use.

verify_cas refuses a diagonal_slack that is negative, NaN or not an
integer before it scans the relation; verify_strong_cas refuses a
test_function_count below 1 or not an integer, as convolve_point_masses
refuses max_reps; hat_bump refuses a NaN width as it refuses one <= 0.
"""

import numpy as np
import pytest

from casmat import (circle_scheme, cyclic_scheme, hamming_scheme, hat_bump,
                    kernel_of_scheme, random_probe_pairs, verify_cas,
                    verify_strong_cas)
from casmat import scheme as scheme_module


@pytest.mark.parametrize("slack", [-1, 2.7, float("nan"), None, "1"])
def test_verify_cas_refuses_a_bad_diagonal_slack(slack, monkeypatch):
    scheme = cyclic_scheme(12)

    def no_scan(*args):
        raise AssertionError("a refused call scanned the relation")
    monkeypatch.setattr(scheme_module, "_row_blocks", no_scan)
    with pytest.raises(ValueError, match="diagonal_slack must be"):
        verify_cas(scheme, diagonal_slack=slack)


def test_verify_cas_keeps_an_integer_diagonal_slack():
    rep = verify_cas(cyclic_scheme(12), diagonal_slack=np.int64(2))
    assert rep.passed() and rep.diagonal_slack == 2
    assert type(rep.diagonal_slack) is int


@pytest.mark.parametrize("count", [0, -3, 2.5, float("nan"), None])
def test_verify_strong_cas_refuses_a_bad_test_function_count(count):
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    probes = random_probe_pairs(hg.label_count, 2)
    with pytest.raises(ValueError, match="test_function_count must be"):
        verify_strong_cas(hg, probes, tolerance=1e-12,
                          test_function_count=count)


def test_verify_strong_cas_takes_one_test_function():
    hg = kernel_of_scheme(hamming_scheme(3, 2))
    probes = random_probe_pairs(hg.label_count, 2)
    report = verify_strong_cas(hg, probes, tolerance=1e-12,
                               test_function_count=1)
    assert report.passed()


@pytest.mark.parametrize("width", [float("nan"), 0.0, -1.0])
def test_hat_bump_refuses_a_width_that_is_not_positive(width):
    label_space = circle_scheme(24, 4).label_space
    with pytest.raises(ValueError, match="width must be positive"):
        hat_bump(label_space, width, period=2 * np.pi)
