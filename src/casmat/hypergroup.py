"""Hypergroup structure on the label space of a scheme.

From a verified scheme one gets a Markov kernel (normalized row fibers),
an invariant label measure (row-fiber masses, which makes the transport
identity exact in the finite case), and a convolution of point masses:
delta_i * delta_i' puts mass p^i_{k,i'^T} / haar[i'] on label k, read off
the first pair (x, z) of the fiber of i in row-major order (under CAS3,
kappa(z, i') pushed forward through y -> relation[x, y]). verify_strong_cas
reduces each fiber once, for the (L, L, L) table, the whole-fiber spread
and CAS4, and reads every identity off the table whole or in (L, L) slabs.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import Kernel, matmul
# fiber is unused here but stays importable: perfbench's tracer wraps it
from .scheme import (Scheme, _check_count, _check_tolerance, _fiber_scan,
                     _index, _table_reduction, _whole_fibers, fiber,
                     joint_table, row_masses)


class RepresentativeDependenceError(ValueError):
    """Point-mass convolution depends on the fiber representative."""


@dataclass(frozen=True)
class HypergroupData:
    """Scheme plus row-fiber kernel data and invariant label weights.

    haar_weights[i] is the (constant) row mass of label i; under counting
    measure these are the valencies. kappa(x, i) is the normalized
    restriction of the node measure to the i-fiber row of x.
    """

    scheme: Scheme
    haar_weights: np.ndarray
    row_mass_spread: float

    @property
    def label_count(self) -> int:
        return self.scheme.label_count

    @property
    def involution(self) -> np.ndarray:
        return self.scheme.label_space.involution

    def kappa(self, x: int, i: int) -> np.ndarray:
        """Probability vector over nodes of the Markov kernel at (x, i)."""
        x = _index(x, self.scheme.space.node_count, f"unknown node {x}")
        i = _index(i, self.label_count, f"unknown label {i}")
        mask = self.scheme.relation[x] == i
        vec = np.zeros(self.scheme.space.node_count)
        vec[mask] = self.scheme.space.weights[mask] / self.haar_weights[i]
        return vec


def kernel_of_scheme(scheme: Scheme, tolerance=None) -> HypergroupData:
    """Build the Markov kernel and invariant weights of a scheme.

    Rejects schemes with an empty row fiber (the kernel would be
    undefined at that (x, i)) and schemes whose row-fiber masses vary
    across x beyond tolerance (no invariant measure). tolerance defaults
    to 1e-12 times the total mass.
    """
    if tolerance is None:
        tolerance = 1e-12 * scheme.space.total_mass
    _check_tolerance(tolerance)
    rowmass = row_masses(scheme)
    empty = np.nonzero(rowmass == 0)
    if empty[0].size:
        x, i = int(empty[0][0]), int(empty[1][0])
        raise ValueError(
            f"row fiber of node {x} for label {i} is empty; the Markov "
            f"kernel is undefined there")
    spread = float((rowmass.max(axis=0) - rowmass.min(axis=0)).max())
    if spread > tolerance:
        i = int(np.argmax(rowmass.max(axis=0) - rowmass.min(axis=0)))
        raise ValueError(
            f"row-fiber masses of label {i} vary across nodes by "
            f"{spread:.3e} (tolerance {tolerance:.3e}); no invariant "
            f"label measure exists at this mesh")
    haar = rowmass[0].copy()
    haar.setflags(write=False)
    return HypergroupData(scheme=scheme, haar_weights=haar,
                          row_mass_spread=spread)


def _row(hg: HypergroupData, i, pairs=None) -> np.ndarray:
    """delta_i * delta_i' for every i', read off the joint table h of the
    first pair of the fiber of i in row-major order (or the first of
    pairs): row i' is h[:, i'^T] / haar[i']."""
    rel = hg.scheme.relation
    xs, zs = pairs or _fiber_scan(rel, i, 1)
    h = joint_table(rel[xs[0]], rel[:, zs[0]], hg.scheme.space.weights,
                    hg.label_count)
    return h[:, hg.involution].T / hg.haar_weights[:, None]


def _fiber_pass(hg: HypergroupData):
    """(table, spread, cas4) from one reduction of every fiber: table[i]
    is the first pair's row, spread the worst spread of an entry over the
    whole fiber, cas4 the worst |p - p^T| of a fiber's mean table p."""
    scheme, L = hg.scheme, hg.label_count
    table = np.empty((L, L, L))
    spread = cas4 = 0.0
    # column j of a joint table holds the entries of row j^T
    haar_t = hg.haar_weights[hg.involution]
    fibers = _whole_fibers(scheme.relation, scheme.space.weights, L)
    for i, (xs, zs, total, lo, hi) in enumerate(fibers):
        table[i] = _row(hg, i, (xs, zs))
        spread = max(spread, float(((hi - lo) / haar_t).max()))
        mean = total / xs.size
        cas4 = max(cas4, float(np.abs(mean - mean.T).max()))
    return table, spread, cas4


def convolution_table(hg: HypergroupData):
    """table[i, i'] = delta_i * delta_i' for all label pairs, and the worst
    spread of an entry over the whole fiber of i."""
    return _fiber_pass(hg)[:2]


def convolve_point_masses(hg: HypergroupData, i, i_prime, max_reps: int = 8,
                          tolerance=None):
    """Convolution of two label point masses, read off the first pair of
    the fiber of i; returns (measure, spread). spread is the worst entrywise
    disagreement among the first max_reps pairs; exceeding a given
    tolerance raises RepresentativeDependenceError (the scheme is not
    strong at this mesh)."""
    _check_count(max_reps, "max_reps", 1)
    if tolerance is not None:
        _check_tolerance(tolerance)
    scheme, L = hg.scheme, hg.label_count
    i = _index(i, L, f"unknown label {i}")
    ip = _index(i_prime, L, f"unknown label {i_prime}")
    reps = min(int(scheme.fiber_counts[i]), max_reps)
    xs, zs = _fiber_scan(scheme.relation, i, reps)
    _, lo, hi = _table_reduction(scheme.relation, scheme.space.weights,
                                 xs, zs, L)
    j = hg.involution[ip]
    spread = float((hi[:, j] - lo[:, j]).max() / hg.haar_weights[ip])
    if tolerance is not None and spread > tolerance:
        raise RepresentativeDependenceError(
            f"convolution delta_{i} * delta_{ip} varies by {spread:.3e} "
            f"across fiber representatives (tolerance {tolerance:.3e})")
    return _row(hg, i, (xs, zs))[ip], spread


def convolve_measure_point(hg: HypergroupData, mu: np.ndarray, i_prime):
    """Bilinear extension: convolve a label measure with a point mass, one
    row of mu's support at a time, added in label order."""
    L = hg.label_count
    mu = np.asarray(mu)
    refusal = (f"need a label in 0..{L - 1} and one mass per label, got "
               f"{i_prime} and shape {mu.shape}")
    if mu.shape != (L,):
        raise ValueError(refusal)
    ip = _index(i_prime, L, refusal)
    out = np.zeros(L)
    for i in np.flatnonzero(mu):
        out += mu[i] * _row(hg, i)[ip]
    return out


def convolve_functions(hg: HypergroupData, f, g):
    """Hypergroup convolution of two label functions.

    (f * g)[i] = sum_{i'} haar[i'] * (integral of f against
    delta_i * delta_{i'}) * g[i'^T].
    """
    table = np.stack([_row(hg, i) for i in range(hg.label_count)])
    return _convolve(hg, table, f, g)


def _convolve(hg: HypergroupData, table, f, g):
    f = np.asarray(f)
    g = np.asarray(g)
    L = hg.label_count
    if f.shape != (L,) or g.shape != (L,):
        raise ValueError(f"label functions must have shape ({L},)")
    return (table @ f) @ (hg.haar_weights * g[hg.involution])


@dataclass
class StrongCasReport:
    """Residual table for the strong-scheme identities.

    Keys: identity_convolution (the identity label's point mass is a
    two-sided unit), pullback_convolution (composition of pullbacks
    equals the pullback of the convolution), transport (the invariant
    measure identity), anti_automorphism, commutativity_tv (gating
    passed() when commutativity is declared) and cas4_deviation.
    """

    residuals: dict
    representative_spread: float
    tolerance: float
    declared_commutative: bool
    probe_count: int

    def passed(self) -> bool:
        required = ["identity_convolution", "pullback_convolution",
                    "transport", "anti_automorphism"]
        if self.declared_commutative:
            required.append("commutativity_tv")
        return all(self.residuals[k] <= self.tolerance for k in required)

    def as_dict(self) -> dict:
        out = {k: float(v) for k, v in self.residuals.items()}
        out["representative_spread"] = self.representative_spread
        out["tolerance"] = self.tolerance
        out["declared_commutative"] = self.declared_commutative
        out["probe_count"] = self.probe_count
        return out


def random_probe_pairs(label_count: int, count: int, seed: int = 0):
    """Seeded real-valued label-function pairs for verify_strong_cas."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-1.0, 1.0, label_count),
             rng.uniform(-1.0, 1.0, label_count)) for _ in range(count)]


def verify_strong_cas(hg: HypergroupData, probes, tolerance: float,
                      test_function_count: int = 5, seed: int = 0,
                      declared_commutative: bool = False) -> StrongCasReport:
    """Measure the identities connecting convolution and composition.

    probes is a non-empty list of (f, g) label-function pairs, real or
    complex. The transport identity is checked for each probe f against
    seeded random node test functions. The anti-automorphism identity runs
    over all label pairs. With declared_commutative, the total-variation
    commutator of the convolution gates passed() as well. The CAS4
    deviation of the fiber means is always reported.
    """
    _check_tolerance(tolerance)
    _check_count(test_function_count, "test_function_count", 1)
    probes = list(probes)
    if not probes:
        raise ValueError("probe list must be non-empty")
    scheme = hg.scheme
    rel = scheme.relation
    w = scheme.space.weights
    n = scheme.space.node_count
    L = hg.label_count
    inv = hg.involution
    residuals = {}
    table, max_spread, cas4 = _fiber_pass(hg)

    # identity label point mass is a two-sided unit
    i0 = scheme.label_space.identity_label
    eye = np.eye(L)
    residuals["identity_convolution"] = np.inf if i0 is None else float(
        max(np.abs(table[i0] - eye).max(), np.abs(table[:, i0] - eye).max()))

    # composition of pullbacks vs pullback of the convolution
    res = 0.0
    for f, g in probes:
        Rf = Kernel(np.asarray(f)[rel], scheme.space)
        Rg = Kernel(np.asarray(g)[rel], scheme.space)
        lhs = matmul(Rf, Rg).entries
        rhs = _convolve(hg, table, f, g)[rel]
        res = max(res, float(np.abs(lhs - rhs).max()))
    residuals["pullback_convolution"] = res

    # transport identity: integrating f against the kernel row measures
    # with the invariant label weights equals pulling f back
    rng = np.random.default_rng(seed)
    test_functions = [rng.uniform(-1.0, 1.0, n)
                      for _ in range(test_function_count)]
    rowints = [row_masses(scheme, w * phi) for phi in test_functions]
    res = 0.0
    for f, _ in probes:
        f = np.asarray(f)
        pulled = f[rel]
        for phi, rowint in zip(test_functions, rowints):
            res = max(res, float(np.abs(rowint @ f
                                        - (pulled * phi) @ w).max()))
    residuals["transport"] = res

    # anti-automorphism: transposing a convolution swaps and transposes
    # the factors; commutativity: total variation of the commutator. Both
    # read (L, L) slabs, so no L^3 temporary is built beside the table.
    anti = tv = 0.0
    for i in range(L):
        anti = max(anti, float(np.abs(table[i][:, inv]
                                      - table[inv, inv[i]]).max()))
        tv = max(tv, 0.5 * float(np.abs(table[i] - table[:, i])
                                 .sum(axis=1).max()))
    residuals["anti_automorphism"] = anti
    residuals["commutativity_tv"] = tv
    residuals["cas4_deviation"] = cas4

    return StrongCasReport(residuals=residuals,
                           representative_spread=max_spread,
                           tolerance=float(tolerance),
                           declared_commutative=bool(declared_commutative),
                           probe_count=len(probes))
