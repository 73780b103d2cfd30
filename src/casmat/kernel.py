"""Dense complex kernels on node pairs: the discretized algebra of X x X.

Carries the four operations (weighted matrix multiplication, Hadamard
product, transpose, conjugate), the sup norm, and the approximate-identity
test harness. Kernels are immutable and tied to their MeasureSpace by
object identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError
from .measure import MeasureSpace
from .scheme import _check_tolerance


class Kernel:
    """Immutable complex matrix over the node pairs of a MeasureSpace."""

    __slots__ = ("entries", "space")

    def __init__(self, entries, space: MeasureSpace):
        arr = np.array(entries, dtype=complex)
        n = space.node_count
        if arr.shape != (n, n):
            raise ValueError(f"entries have shape {arr.shape}, expected ({n}, {n})")
        if not np.isfinite(arr).all():
            raise ValueError("kernel entries must all be finite")
        arr.setflags(write=False)
        self.entries = arr
        self.space = space

    def __repr__(self):
        return f"Kernel(n={self.space.node_count})"


def _check_same_space(A: Kernel, B: Kernel) -> MeasureSpace:
    if A.space is not B.space:
        raise SpaceMismatchError(
            "kernels live over different measure spaces "
            "(space identity is checked by reference)")
    return A.space


def ones_kernel(space: MeasureSpace) -> Kernel:
    """The constant-one kernel J, the Hadamard unit."""
    return Kernel(np.ones((space.node_count,) * 2), space)


def diagonal_kernel(space: MeasureSpace) -> Kernel:
    """Indicator of the diagonal. The composition identity iff weights are 1."""
    return Kernel(np.eye(space.node_count), space)


def matmul(A: Kernel, B: Kernel) -> Kernel:
    """Weighted composition: (A o B)[x,z] = sum_y w[y] A[x,y] B[y,z].

    Accumulates in complex128 via BLAS; the documented accumulation
    tolerance is 1e-10 relative.
    """
    space = _check_same_space(A, B)
    return Kernel((A.entries * space.weights) @ B.entries, space)


def hadamard(A: Kernel, B: Kernel) -> Kernel:
    """Entrywise product."""
    space = _check_same_space(A, B)
    return Kernel(A.entries * B.entries, space)


def transpose(A: Kernel) -> Kernel:
    return Kernel(A.entries.T, A.space)


def conjugate(A: Kernel) -> Kernel:
    return Kernel(np.conj(A.entries), A.space)


def sup_norm(A: Kernel) -> float:
    return float(np.abs(A.entries).max())


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of a candidate approximate-identity family against probes.

    left_residuals[N, p]  = sup |I_N o A_p - A_p|
    right_residuals[N, p] = sup |A_p o I_N - A_p|
    non_increasing[p] is True when both residual sequences are
    non-increasing in N; final_below[p] compares the last (finest)
    residual of either side against the caller tolerance.
    """

    left_residuals: np.ndarray
    right_residuals: np.ndarray
    non_increasing: np.ndarray
    final_below: np.ndarray
    tolerance: float

    @property
    def all_non_increasing(self) -> bool:
        return bool(self.non_increasing.all())

    @property
    def all_final_below(self) -> bool:
        return bool(self.final_below.all())


class _CellProbe:
    """Member k of a cell-form basis (an IndicatorKernels) as a probe; its
    dense entries are built each time they are asked for."""

    def __init__(self, members, k: int):
        self.members, self.k, self.space = members, k, members.space

    @property
    def entries(self):
        return Kernel(self.members.cells == self.k, self.space).entries


def _real_diagonal(K: Kernel):
    """K's diagonal when K is a real diagonal kernel, else None. A complex
    diagonal scales with other rounding than BLAS's complex product."""
    e = K.entries.diagonal()
    if np.count_nonzero(K.entries) != np.count_nonzero(e) or e.imag.any():
        return None
    return e


def check_approximate_identity(family, probes, tolerance: float) -> IdentityReport:
    """Measure how well an ordered kernel family acts as a composition identity.

    `family` is ordered from coarsest to finest. For each member I_N and
    each probe A the report records sup |I_N o A - A| and sup |A o I_N - A|.
    A real diagonal member scales the rows (left) and columns (right) of
    each probe in the order the product rounds, so the residuals agree bit
    for bit, and reads a cell probe's off the cell matrix. Any other
    member forms both dense products.
    """
    _check_tolerance(tolerance)
    family = list(family)
    probes = list(probes)
    if not family:
        raise ValueError("identity family must be non-empty")
    if not probes:
        raise ValueError("probe list must be non-empty")
    space = family[0].space
    for K in family + probes:
        if K.space is not space:
            raise SpaceMismatchError("family and probes must share one space")
    left = np.zeros((len(family), len(probes)))
    right = np.zeros_like(left)
    for i, I_N in enumerate(family):
        e = _real_diagonal(I_N)
        if e is None:
            for j, A in enumerate(probes):
                left[i, j] = np.abs(matmul(I_N, A).entries - A.entries).max()
                right[i, j] = np.abs(matmul(A, I_N).entries - A.entries).max()
            continue
        # (I_N o A)[x, z] = d[x] * A[x, z] and (A o I_N)[x, z] = A[x, z] * d[z]
        d = e * space.weights
        members = None
        for j, A in enumerate(probes):
            if not isinstance(A, _CellProbe):
                P = A.entries
                left[i, j] = np.abs(d[:, None] * P - P).max()
                right[i, j] = np.abs((P * space.weights) * e - P).max()
                continue
            if A.members is not members:
                # a cell misses by |d - 1| on each row (left) and column
                # (right) holding it; values with both axes, as numpy
                # 2.4's ufunc.at misreads 1-d values against 2-d indices
                members, r = A.members, np.abs(d - 1)
                lefts, rights = np.zeros((2, len(members)))
                np.maximum.at(lefts, members.cells, r[:, None])
                np.maximum.at(rights, members.cells, r[None, :])
            left[i, j], right[i, j] = lefts[A.k], rights[A.k]
    non_inc = np.logical_and(
        (np.diff(left, axis=0) <= 0).all(axis=0),
        (np.diff(right, axis=0) <= 0).all(axis=0))
    final = np.maximum(left[-1], right[-1]) <= tolerance
    return IdentityReport(left_residuals=left, right_residuals=right,
                          non_increasing=non_inc, final_below=final,
                          tolerance=float(tolerance))
