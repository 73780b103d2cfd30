"""Hypergroup structure on the label space of a scheme.

From a verified scheme one gets a Markov kernel (normalized row fibers),
an invariant label measure (row-fiber masses, which makes the transport
identity exact in the finite case), and a convolution of point masses via
pushforward through the relation. verify_strong_cas measures the
identities tying the convolution back to kernel composition. It builds the
(L, L, L) convolution table once; every identity is then an array
expression over that table, read whole or in (L, L) slabs.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import Kernel, matmul
# fiber is unused here but stays bound: perfbench's tracer test checks
# that it wraps fiber in this module too
from .scheme import (Scheme, _fiber_pairs_at, fiber, joint_table,  # noqa: F401
                     row_masses, verify_cas)


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
        if not 0 <= i < self.label_count:
            raise ValueError(f"unknown label {i}")
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


def _convolution_rows(hg: HypergroupData, labels, out, max_reps: int = 8):
    """Write delta_i * delta_i' for every i' into out[r], i = labels[r];
    returns the spread of each, shape (len(labels), L).

    For a representative (x, z) of i, row i' of the joint table of
    (relation[z], relation[x]) over haar[i'] pushes kappa(z, i') forward
    through y -> relation[x, y]. Averages the first max_reps of them in
    row-major order, found from the per-row label counts without a scan
    of the whole relation.
    """
    scheme = hg.scheme
    rel = scheme.relation
    L = hg.label_count
    # a mean's sums taken in place (weights are positive, so 0 + m is m),
    # in scratch made once: per-row temporaries freed at the top of the
    # heap get trimmed by the allocator and faulted back in on every row
    lo = np.empty((L, L))
    hi = np.empty((L, L))
    spreads = np.empty((len(labels), L))
    for r, i in enumerate(labels):
        reps = min(int(scheme.fiber_counts[i]), max_reps)
        xs, zs = _fiber_pairs_at(scheme, i, np.arange(reps))
        total = out[r]
        total.fill(0.0)
        lo.fill(np.inf)
        hi.fill(-np.inf)
        for x, z in zip(xs, zs):
            m = joint_table(rel[z], rel[x], scheme.space.weights, L)
            m /= hg.haar_weights[:, None]
            total += m
            np.minimum(lo, m, out=lo)
            np.maximum(hi, m, out=hi)
        total /= reps
        hi -= lo
        spreads[r] = hi.max(axis=1)
    return spreads


def convolution_table(hg: HypergroupData):
    """table[i, i'] = delta_i * delta_i' for all label pairs, and the worst
    representative spread over the whole table."""
    L = hg.label_count
    table = np.empty((L, L, L))
    return table, float(_convolution_rows(hg, range(L), table).max())


def convolve_point_masses(hg: HypergroupData, i, i_prime, max_reps: int = 8,
                          tolerance=None):
    """Convolution of two label point masses; returns (measure, spread).

    Picks up to max_reps representative pairs (x, z) from the fiber of i
    and pushes kappa(z, i_prime) forward through y -> relation[x, y].
    spread is the worst entrywise disagreement between representatives;
    when a tolerance is given, exceeding it raises
    RepresentativeDependenceError (the scheme is not strong at this mesh).
    """
    i, ip = int(i), int(i_prime)
    for label in (ip, i):
        if not 0 <= label < hg.label_count:
            raise ValueError(f"unknown label {label}")
    row = np.empty((1, hg.label_count, hg.label_count))
    spread = float(_convolution_rows(hg, [i], row, max_reps)[0, ip])
    if tolerance is not None and spread > tolerance:
        raise RepresentativeDependenceError(
            f"convolution delta_{i} * delta_{ip} varies by {spread:.3e} "
            f"across fiber representatives (tolerance {tolerance:.3e})")
    return row[0, ip], spread


def convolve_measure_point(hg: HypergroupData, mu: np.ndarray, i_prime):
    """Bilinear extension: convolve a label measure with a point mass. The
    rows of mu's support are built in one pass and added in label order."""
    L = hg.label_count
    mu = np.asarray(mu)
    if not 0 <= i_prime < L or mu.shape != (L,):
        raise ValueError(f"need a label in 0..{L - 1} and one mass per "
                         f"label, got {i_prime} and shape {mu.shape}")
    support = np.flatnonzero(mu)
    rows = np.empty((support.size, L, L))
    _convolution_rows(hg, support, rows)
    out = np.zeros(L)
    for i, row in zip(support, rows):
        out += mu[i] * row[i_prime]
    return out


def convolve_functions(hg: HypergroupData, f, g):
    """Hypergroup convolution of two label functions.

    (f * g)[i] = sum_{i'} haar[i'] * (integral of f against
    delta_i * delta_{i'}) * g[i'^T].
    """
    return _convolve(hg, convolution_table(hg)[0], f, g)


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
    deviation of the scheme is always reported.
    """
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
    table, max_spread = convolution_table(hg)

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
    cas = verify_cas(scheme, tolerance=max(tolerance, 0.0))
    residuals["cas4_deviation"] = cas.cas4_max_deviation

    return StrongCasReport(residuals=residuals,
                           representative_spread=max_spread,
                           tolerance=float(tolerance),
                           declared_commutative=bool(declared_commutative),
                           probe_count=len(probes))
