"""Spanning kernel families as candidate Bose-Mesner algebras.

Verifies the algebra axioms numerically (approximate composition
identity, J-absorption, closure under composition and transpose,
commutativity, symmetry), expands products in the span to get structure
constants, and builds approximate identities from bump functions on the
label space of a scheme.

A basis of adjacency indicators (0/1 kernels partitioning the node pairs
into cells) is held as its integer cell matrix. algebra_of_scheme builds it
in that form (IndicatorKernels: member k is built as a dense kernel only
when first asked for, then kept); a basis given as dense kernels has its
cell matrix found once, when the AlgebraBasis is made. Either way it is
checked on the cell matrix: rank from cell masses, span membership from
weighted cell means, J-absorption from row masses, transpose closure from
one joint count of cells and transposed cells, closure and commutativity
from one reduction per cell of the joint label tables (their entries are
the intersection numbers), and symmetry from the cell matrix against its
transpose. default_probes hands its members over as cell probes, which
only an identity that is not diagonal builds densely and multiplies.
Any other basis is stacked densely, so time and memory grow with
basis_size * node_count**2 and every product costs a dense node_count**3
matmul; intended for modest label counts.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SpaceMismatchError
from .kernel import (Kernel, IdentityReport, _CellProbe,
                     check_approximate_identity, matmul, ones_kernel,
                     _real_diagonal, sup_norm, transpose)
from .measure import product_integrate
from .scheme import Scheme, _check_tolerance, _row_masses, _whole_fibers


class RankDeficiencyError(ValueError):
    """The basis is linearly dependent; names the dependent members."""

    def __init__(self, dependent):
        self.dependent = tuple(int(i) for i in dependent)
        super().__init__(
            f"basis members {self.dependent} lie in the span of the others")


class IndicatorKernels(Sequence):
    """The 0/1 kernels of a cell matrix: member k indicates cell k.

    A member is built as a dense Kernel when first indexed and kept, so no
    kernel is built twice and len() builds none. Slices and concatenation
    with another sequence give tuples of built kernels.
    """

    def __init__(self, cells, space, count: int):
        cells = np.asarray(cells)
        n = space.node_count
        if cells.shape != (n, n) or not np.issubdtype(cells.dtype,
                                                      np.integer):
            raise ValueError(f"cell matrix must be an integer ({n}, {n}) "
                             f"array, got {cells.dtype} {cells.shape}")
        if count < 1:
            raise ValueError("basis must be non-empty")
        if cells.min() < 0 or cells.max() >= count:
            raise ValueError(f"cell ids must lie in 0..{count - 1}")
        self.cells = cells
        self.space = space
        self._built = [None] * count

    def __len__(self):
        return len(self._built)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]
        if self._built[k] is None:
            self._built[k] = Kernel(self.cells == k, self.space)
        return self._built[k]

    def __add__(self, other):
        return tuple(self) + tuple(other)


@dataclass(frozen=True)
class AlgebraBasis:
    """Spanning family of kernels over one space.

    contains_J asserts that the constant-one kernel lies in the span;
    closure_tolerance is the numeric budget for the Hadamard-closure,
    conjugate-closure and unitality invariants. basis is a tuple of
    kernels or, in cell form, an IndicatorKernels. cells is the cell matrix
    of an adjacency-indicator basis (in cell form, the one it was made
    from; for dense kernels, found once here) and None for any other.
    """

    basis: Sequence
    contains_J: bool = True
    closure_tolerance: float = 0.0
    cells: Optional[np.ndarray] = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.basis, IndicatorKernels):
            object.__setattr__(self, "cells", self.basis.cells)
            return
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("basis must be non-empty")
        space = basis[0].space
        for K in basis:
            if K.space is not space:
                raise SpaceMismatchError("basis kernels must share one space")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "cells", _cell_matrix(basis))

    @property
    def cell_form(self) -> bool:
        """True when the basis is held as its cell matrix alone."""
        return isinstance(self.basis, IndicatorKernels)

    @property
    def space(self):
        return self.basis.space if self.cell_form else self.basis[0].space

    @property
    def size(self) -> int:
        return len(self.basis)


def _pair_weights(space):
    return np.outer(space.weights, space.weights).ravel()


def _span_solver(basis):
    """expand(target) -> (coefficients, sup-norm residual) for one basis.

    The basis is rank-checked first, so a dependent member is named by a
    RankDeficiencyError instead of a singular solve. The stacked basis and
    its Gram matrix under the product-measure inner product are built
    once and serve every target.
    """
    check_rank(basis)
    B = np.stack([K.entries.ravel() for K in basis])
    BW = B.conj() * _pair_weights(basis[0].space)
    G = BW @ B.T

    def expand(target):
        t = np.asarray(target, dtype=complex).ravel()
        coeffs = np.linalg.solve(G, BW @ t)
        return coeffs, float(np.abs(t - coeffs @ B).max())
    return expand


def span_expand(basis, target: np.ndarray):
    """Least-squares expansion of target in the basis span.

    Uses the product-measure inner product; returns (coefficients,
    sup-norm residual of the reconstruction).
    """
    return _span_solver(tuple(basis))(target)


def span_membership_tolerance(target: Kernel) -> float:
    """Default numeric budget for 'lies in the span': 1e-9*(1+sup|target|)."""
    return 1e-9 * (1.0 + sup_norm(target))


def check_rank(basis):
    """Reject linearly dependent bases, naming the dependent members."""
    basis = tuple(basis)
    space = basis[0].space
    wxy = _pair_weights(space)
    ortho = []
    dependent = []
    for idx, K in enumerate(basis):
        v = K.entries.ravel().astype(complex)
        scale = float(np.sqrt(np.real(np.dot(v.conj() * wxy, v))))
        for q in ortho:
            v = v - np.dot(q.conj() * wxy, v) * q
        norm = float(np.sqrt(np.real(np.dot(v.conj() * wxy, v))))
        if norm <= 1e-10 * max(1.0, scale):
            dependent.append(idx)
        else:
            ortho.append(v / norm)
    if dependent:
        raise RankDeficiencyError(dependent)


def _cell_matrix(basis):
    """Cell ids of an adjacency-indicator partition basis, else None."""
    lab = np.full(basis[0].entries.shape, -1, dtype=np.int32)
    for k, K in enumerate(basis):
        e = K.entries
        cell = e.real == 1.0
        # not a 0/1 kernel, or overlapping an earlier cell
        if ((e.imag != 0).any() or not np.isin(e.real, (0.0, 1.0)).all()
                or (lab[cell] >= 0).any()):
            return None
        lab[cell] = k
    return lab if (lab >= 0).all() else None


def _cell_masses(lab, w, L):
    """Product-measure mass of each of the L cells.

    Disjoint indicators are orthogonal, so Gram-Schmidt's rule (dependent
    when the norm is <= 1e-10 * max(1, norm before projection)) reduces to
    a cell mass <= 1e-20; those members are named in RankDeficiencyError.
    """
    mass = np.bincount(lab.ravel(), weights=np.outer(w, w).ravel(),
                       minlength=L)
    dependent = np.flatnonzero(mass <= 1e-20)
    if dependent.size:
        raise RankDeficiencyError(dependent)
    return mass


def _cell_span_solver(lab, w, L):
    """expand(target) for a cell basis: the Gram matrix is diagonal, so
    each coefficient is the target's weighted mean over its cell. Checks
    the rank first."""
    mass = _cell_masses(lab, w, L)
    cells = lab.ravel()
    wxy = np.outer(w, w).ravel()

    def expand(target):
        t = np.asarray(target, dtype=complex).ravel()
        coeffs = (np.bincount(cells, weights=wxy * t.real, minlength=L)
                  + 1j * np.bincount(cells, weights=wxy * t.imag,
                                     minlength=L)) / mass
        return coeffs, float(np.abs(t - coeffs[cells]).max())
    return expand


def _transpose_residual(lab, w, L):
    """BMA3 on a cell basis, from one joint count of (cells, cells^T).

    The cell solver gives A_k^T the coefficient c_jk = m_jk / mass_j on
    A_j, m_jk the mass of cell j on cell k of the transpose. A pair of
    cell j misses by |1 - c_jk| if its transpose is in cell k, else c_jk.
    """
    mass = _cell_masses(lab, w, L)
    keys = (lab.astype(np.int64) * L + lab.T).ravel()
    m = np.bincount(keys, weights=np.outer(w, w).ravel(), minlength=L * L)
    meets = np.bincount(keys, minlength=L * L).reshape(L, L)
    # the complex division the cell solver does, so the last bit agrees
    c = ((m.reshape(L, L) + 0j) / mass[:, None]).real
    outside = meets < meets.sum(axis=1, keepdims=True)
    return max(float(np.abs(1.0 - c[meets > 0]).max()),
               float(c[outside].max(initial=0.0)))


def _products(alg: AlgebraBasis, expand=None):
    """Yields (index, coefficients, residual, commutator) per piece of
    structure_constants' tensor: the residual of those coefficients and a
    bound on sup |A_i o A_j - A_j o A_i|.

    On a cell basis (A_i o A_j)[x, z] is entry [i, j] of the joint table
    h of (x, z): one reduction per cell k gives the coefficients of A_k
    (the table of the cell's first pair), their spread and the largest
    entry of h - h^T. Any other basis forms the two products of each pair
    {i, j} once and expands them with expand (built here when not given).
    """
    basis = alg.basis
    L = len(basis)
    w = alg.space.weights

    lab = alg.cells
    if lab is not None:
        _cell_masses(lab, w, L)
        fibers = _whole_fibers(lab, w, L, skew=True)
        for k, (_, _, _, lo, hi, first, skew) in enumerate(fibers):
            yield ((slice(None), slice(None), k), first,
                   max(float((hi - first).max()), float((first - lo).max())),
                   skew)
        return

    expand = expand or _span_solver(basis)
    for i in range(L):
        for j in range(i, L):
            P = matmul(basis[i], basis[j]).entries
            yield ((i, j), *expand(P), 0.0)
            if j > i:
                Q = matmul(basis[j], basis[i]).entries
                yield ((j, i), *expand(Q), float(np.abs(P - Q).max()))


def structure_constants(alg: AlgebraBasis):
    """Expand every basis product A_i o A_j in the span.

    Returns (tensor, residual): tensor[i, j, k] is the coefficient of
    A_k, residual the worst sup-norm reconstruction error. For an
    adjacency-indicator basis the coefficients are evaluated exactly on
    the partition cells and equal the intersection numbers, and the
    tensor is real (float64); any other basis gives a complex tensor.
    """
    L = alg.size
    tensor = np.zeros((L, L, L), dtype=float if alg.cells is not None
                      else complex)
    residual = 0.0
    for index, coeffs, resid, _ in _products(alg):
        tensor[index] = coeffs
        residual = max(residual, resid)
    return tensor, residual


def validate_closure(alg: AlgebraBasis) -> float:
    """Check the Hadamard/conjugate closure and unitality invariants.

    Returns the worst span residual over all Hadamard products,
    conjugates and (when contains_J) the constant-one kernel; raises if
    it exceeds closure_tolerance plus the default numeric budget.
    """
    basis = alg.basis
    worst = 0.0
    targets = []
    for i, A in enumerate(basis):
        targets.append(np.conj(A.entries))
        for B in basis[i:]:
            targets.append(A.entries * B.entries)
    if alg.contains_J:
        targets.append(ones_kernel(alg.space).entries)
    expand = _span_solver(basis)
    for t in targets:
        _, resid = expand(t)
        worst = max(worst, resid)
        budget = alg.closure_tolerance + 1e-9 * (1.0 + float(np.abs(t).max()))
        if resid > budget:
            raise ValueError(
                f"basis is not Hadamard/conjugate closed: residual "
                f"{resid:.3e} exceeds {budget:.3e}")
    return worst


@dataclass
class BmaReport:
    """Numerical evidence for the Bose-Mesner axioms.

    bma1a_residuals[N, p] is the worse of the left/right composition
    residuals of identity-family member N against probe p. The probe set
    is a policy, recorded in probe_policy. stats counts the work done:
    basis_path ("cells" for an adjacency-indicator partition, else
    "dense"), dense_matmuls and span_solves (Gram-matrix solves).
    """

    bma1a_residuals: np.ndarray
    bma1b_deviation: float
    bma2_residual: float
    bma3_ok: bool
    commutative_residual: float
    symmetric_ok: bool
    tolerance: float
    probe_policy: str
    identity_report: IdentityReport
    bma3_residual: float
    symmetric_residual: float
    stats: dict

    def passed(self) -> bool:
        return (self.identity_report.all_final_below
                and self.bma1b_deviation <= self.tolerance
                and self.bma2_residual <= self.tolerance
                and self.bma3_ok)

    def as_dict(self) -> dict:
        return {
            "bma1a_final_residual": float(self.bma1a_residuals[-1].max()),
            "bma1b_deviation": self.bma1b_deviation,
            "bma2_residual": self.bma2_residual,
            "bma3_ok": self.bma3_ok,
            "bma3_residual": self.bma3_residual,
            "commutative_residual": self.commutative_residual,
            "symmetric_ok": self.symmetric_ok,
            "symmetric_residual": self.symmetric_residual,
            "tolerance": self.tolerance,
            "probe_policy": self.probe_policy,
            "stats": dict(self.stats),
        }


def verify_bma(alg: AlgebraBasis, identity_family, probes, tolerance: float,
               probe_policy: str = "caller-supplied") -> BmaReport:
    """Run all Bose-Mesner checks for one basis.

    identity_family members must lie in the span (within tolerance plus
    the numeric budget), otherwise the call is rejected. BMA4/BMA5 are
    reported as residuals; they do not gate passed().

    An adjacency-indicator basis is checked on its cell matrix (rank
    first, so an empty member is named before any span check); only an
    identity family member that is not diagonal multiplies dense kernels.
    """
    _check_tolerance(tolerance)
    basis = alg.basis
    L = len(basis)
    w = alg.space.weights
    identity_family = list(identity_family)
    probes = list(probes)
    lab = alg.cells
    expand = (_span_solver(basis) if lab is None
              else _cell_span_solver(lab, w, L))
    for I_N in identity_family:
        _, resid = expand(I_N.entries)
        if resid > tolerance + span_membership_tolerance(I_N):
            raise ValueError(
                f"identity family member lies outside the span "
                f"(residual {resid:.3e})")

    ident = check_approximate_identity(identity_family, probes, tolerance)
    bma1a = np.maximum(ident.left_residuals, ident.right_residuals)
    bma2 = comm = 0.0
    for _, _, resid, skew in _products(alg, expand):
        bma2, comm = max(bma2, resid), max(comm, skew)
    probe_matmuls = 2 * len(probes) * sum(
        _real_diagonal(I_N) is None for I_N in identity_family)

    if lab is not None:
        # (A_k o J)[x, z] is the mass of row x on cell k
        rows = _row_masses(lab, w, L)
        bma1b = float(np.abs(rows - rows[0]).max())
        bma3_res = _transpose_residual(lab, w, L)
        # every nonempty 0/1 member has sup norm 1
        bma3_budget = 1e-9 * (1.0 + 1.0)
        # the 0/1 members are symmetric exactly when the cells are
        sym_res = float((lab != lab.T).any())
        stats = {"basis_path": "cells", "dense_matmuls": probe_matmuls,
                 "span_solves": 0}
    else:
        J = ones_kernel(alg.space)
        bma1b = 0.0
        for A in basis:
            C = matmul(A, J).entries
            bma1b = max(bma1b, float(np.abs(C - C[0, 0]).max()))
        bma3_res = max(expand(transpose(A).entries)[1] for A in basis)
        bma3_budget = max(span_membership_tolerance(A) for A in basis)
        sym_res = max(float(np.abs(A.entries - A.entries.T).max())
                      for A in basis)
        # J-absorption L, then each product A_i o A_j once: L * L
        stats = {"basis_path": "dense",
                 "dense_matmuls": probe_matmuls + L + L * L,
                 "span_solves": len(identity_family) + L * L + L}
    bma3_ok = bma3_res <= tolerance + bma3_budget

    return BmaReport(
        bma1a_residuals=bma1a, bma1b_deviation=bma1b, bma2_residual=bma2,
        bma3_ok=bool(bma3_ok), commutative_residual=comm,
        symmetric_ok=bool(sym_res <= tolerance), tolerance=float(tolerance),
        probe_policy=probe_policy, identity_report=ident,
        bma3_residual=bma3_res, symmetric_residual=sym_res, stats=stats)


def default_probes(alg: AlgebraBasis, count: int = 3, seed: int = 0):
    """Basis members plus seeded random kernels; returns (probes, policy).
    A cell-form basis gives its members as cell probes, not dense kernels.
    """
    rng = np.random.default_rng(seed)
    n = alg.space.node_count
    probes = ([_CellProbe(alg.basis, k) for k in range(alg.size)]
              if alg.cell_form else list(alg.basis))
    for _ in range(count):
        probes.append(Kernel(rng.uniform(-1, 1, (n, n))
                             + 1j * rng.uniform(-1, 1, (n, n)), alg.space))
    return probes, f"basis members + {count} seeded random kernels (seed={seed})"


# ---------------------------------------------------------------------------
# approximate identities from bumps on the label space


def indicator_bump(label_space):
    """Bump supported on the identity label alone; returns (bump, nbhd)."""
    if label_space.identity_label is None:
        raise ValueError("label space has no identity label")
    bump = np.zeros(label_space.size)
    bump[label_space.identity_label] = 1.0
    return bump, (label_space.identity_label,)


def hat_bump(label_space, width: float, period=None):
    """Triangular bump on bin-midpoint distance; returns (bump, nbhd).

    Needs bin intervals on the label space. Distance of a label is the
    absolute midpoint of its interval, optionally folded to a period
    (2*pi for circular label values).
    """
    if label_space.identity_label is None:
        raise ValueError("label space has no identity label")
    if label_space.bin_meta is None:
        raise ValueError("hat bump needs bin intervals on the label space")
    if not width > 0:
        raise ValueError("width must be positive")
    L = label_space.size
    bump = np.zeros(L)
    for i in range(L):
        meta = label_space.bin_meta[i]
        if meta is None:
            continue
        mid = 0.5 * (meta[0] + meta[1])
        d = abs(mid)
        if period is not None:
            d = d % period
            d = min(d, period - d)
        bump[i] = max(0.0, 1.0 - d / width)
    bump[label_space.identity_label] = 1.0
    neighborhood = tuple(np.nonzero(bump > 0)[0].tolist())
    return bump, neighborhood


def build_approximate_identity(scheme: Scheme, neighborhood, bump) -> Kernel:
    """Approximate composition identity from a bump at the identity label.

    With h the pullback of the bump through the relation, returns
    total_mass / (2 * integral of h against the product measure) times
    (h + h transposed). Every row must integrate to 1 within 1e-10, which
    holds exactly when row-fiber masses are constant; a violation is
    raised, not returned.
    """
    ls = scheme.label_space
    if ls.identity_label is None:
        raise ValueError("scheme has no identity label")
    i0 = ls.identity_label
    nbhd = set(int(i) for i in neighborhood)
    if i0 not in nbhd:
        raise ValueError("neighborhood must contain the identity label")
    b = np.asarray(bump, dtype=float)
    if b.shape != (ls.size,):
        raise ValueError(f"bump must have one weight per label "
                         f"({ls.size}), got shape {b.shape}")
    if not np.isfinite(b).all() or (b < 0).any():
        raise ValueError("bump weights must be finite and non-negative")
    if b[i0] != 1.0:
        raise ValueError(f"bump must equal 1 at the identity label, "
                         f"got {float(b[i0])!r}")
    support = set(np.nonzero(b > 0)[0].tolist())
    if not support <= nbhd:
        raise ValueError(
            f"bump support {sorted(support - nbhd)} leaks outside the "
            f"neighborhood")
    H = b[scheme.relation]
    S = float(product_integrate(H, scheme.space).real)
    if S <= 0.0:
        raise ValueError("bump integrates to zero against the product measure")
    entries = (scheme.space.total_mass / (2.0 * S)) * (H + H.T)
    rows = entries @ scheme.space.weights
    worst = float(np.abs(rows - 1.0).max())
    if worst > 1e-10:
        raise ValueError(
            f"rows fail to integrate to 1 (worst error {worst:.3e}); "
            f"row-fiber masses are not constant at this mesh")
    return Kernel(entries, scheme.space)
