"""Relation maps on node pairs and the association-scheme axiom checks.

A Scheme is a MeasureSpace together with a finite label space and a
surjective relation matrix: the discretized quotient map from node pairs
onto labels. verify_cas measures, against a caller-supplied generating
family of label sets, how far the scheme is from satisfying the axioms:

  CAS1  the identity label's fiber is exactly the diagonal;
  CAS2  intersection numbers are constant on each fiber;
  CAS3  transposing a fiber lands on the fiber of an involution partner;
  CAS4  intersection numbers are symmetric in the two label sets
        (commutativity, reported as a deviation);
  CAS5  the involution is the identity (symmetry, structural).

Structural failures (CAS1/CAS3) are reported with witnesses rather than
raised, so corrupted inputs can be diagnosed.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError
from .measure import MeasureSpace, make_quadrature

SCHEME_HEADER = "#casmat-scheme v1"


class SurjectivityError(ValueError):
    """The relation does not cover every label."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"labels with empty fibers: {self.missing}")


@dataclass(frozen=True)
class LabelSpace:
    """Finite label set with involution, optional identity and bin intervals.

    Labels are the integers 0..size-1. bin_meta, when present, holds one
    half-open interval (a, b) or None per label; intervals must be
    pairwise disjoint.
    """

    involution: np.ndarray
    identity_label: Optional[int] = None
    bin_meta: Optional[tuple] = None

    def __post_init__(self):
        inv = np.asarray(self.involution, dtype=np.int64)
        if inv.ndim != 1 or inv.size == 0:
            raise ValueError("involution must be a non-empty 1-d index table")
        L = inv.size
        if ((inv < 0) | (inv >= L)).any():
            raise ValueError("involution entries must be valid label ids")
        if not np.array_equal(inv[inv], np.arange(L)):
            raise ValueError("involution table must be an involutive bijection")
        inv = inv.copy()
        inv.setflags(write=False)
        object.__setattr__(self, "involution", inv)
        if self.identity_label is not None:
            i0 = int(self.identity_label)
            if not 0 <= i0 < L:
                raise ValueError(f"identity label {i0} out of range")
            if inv[i0] != i0:
                raise ValueError("involution must fix the identity label")
            object.__setattr__(self, "identity_label", i0)
        if self.bin_meta is not None:
            meta = tuple(None if m is None else (float(m[0]), float(m[1]))
                         for m in self.bin_meta)
            if len(meta) != L:
                raise ValueError("bin_meta must carry one entry per label")
            present = sorted(m for m in meta if m is not None)
            for (a, b) in present:
                if not a < b:
                    raise ValueError(f"bin interval [{a}, {b}) is empty")
            for (_, b1), (a2, _) in zip(present, present[1:]):
                if b1 > a2:
                    raise ValueError("bin intervals must be pairwise disjoint")
            object.__setattr__(self, "bin_meta", meta)

    @property
    def size(self) -> int:
        return int(self.involution.size)

    @property
    def labels(self) -> range:
        return range(self.size)

    def is_symmetric(self) -> bool:
        """CAS5: every label is its own involution partner."""
        return bool(np.array_equal(self.involution, np.arange(self.size)))


def label_dtype(label_count: int) -> np.dtype:
    """The narrowest dtype that holds the labels 0..label_count-1: uint8
    up to 256 labels, uint16 up to 65 536, int32 beyond."""
    if label_count <= 1 << 8:
        return np.dtype(np.uint8)
    if label_count <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


# a block of relation rows counted at once stays near this many entries
_COUNT_BLOCK_ENTRIES = 1 << 16


class Scheme:
    """MeasureSpace + LabelSpace + surjective relation matrix.

    Construction enforces shape, label range and surjectivity. The deeper
    axioms are measured by verify_cas, never assumed, so invalid relation
    tables (for negative controls or corrupted files) stay representable.

    The relation is kept read-only in label_dtype(label_count): uint8 up
    to 256 labels, uint16 up to 65 536, int32 beyond. Its range is checked
    before it is narrowed, and the constructor always copies it, so a
    caller's array is never frozen or aliased. Arithmetic on label values
    must widen first (numpy 2 keeps uint8 * int in uint8).

    borel_bins optionally stores a generating family of label sets used as
    the default CAS2 checking family for continuum-derived schemes.
    """

    __slots__ = ("space", "label_space", "relation", "borel_bins",
                 "fiber_counts", "_row_counts")

    def __init__(self, space: MeasureSpace, label_space: LabelSpace,
                 relation, borel_bins=None):
        self._setup(space, label_space, np.asarray(relation), borel_bins,
                    copy=True)

    @classmethod
    def _adopt(cls, space, label_space, relation, borel_bins=None):
        """A Scheme over a relation array that nothing else holds: it is
        narrowed without a copy when already in label_dtype, and frozen
        in place. For readers and builders that made the array."""
        scheme = cls.__new__(cls)
        scheme._setup(space, label_space, relation, borel_bins, copy=False)
        return scheme

    def _setup(self, space, label_space, rel, borel_bins, copy):
        n = space.node_count
        if rel.shape != (n, n):
            raise ValueError(f"relation has shape {rel.shape}, expected ({n}, {n})")
        if not np.issubdtype(rel.dtype, np.integer):
            raise ValueError("relation entries must be integer label ids")
        L = label_space.size
        if rel.size and (rel.min() < 0 or rel.max() >= L):
            raise ValueError("relation entries must lie in 0..label_count-1")
        # counted in blocks of rows: one bincount over all n * n entries
        # would first copy them to intp
        counts = np.zeros(L, dtype=np.int64)
        rows = max(1, _COUNT_BLOCK_ENTRIES // max(n, 1))
        for r in range(0, n, rows):
            counts += np.bincount(rel[r:r + rows].ravel(), minlength=L)
        missing = np.nonzero(counts == 0)[0]
        if missing.size:
            raise SurjectivityError(missing.tolist())
        rel = rel.astype(label_dtype(L), copy=copy)
        rel.setflags(write=False)
        self.space = space
        self.label_space = label_space
        self.relation = rel
        self.fiber_counts = counts
        self._row_counts = None
        if borel_bins is not None:
            borel_bins = tuple(tuple(int(i) for i in W) for W in borel_bins)
            for W in borel_bins:
                for i in W:
                    if not 0 <= i < L:
                        raise ValueError(f"borel bin label {i} out of range")
        self.borel_bins = borel_bins

    @property
    def label_count(self) -> int:
        return self.label_space.size

    def __repr__(self):
        return (f"Scheme(nodes={self.space.node_count}, "
                f"labels={self.label_count})")


def fiber(scheme: Scheme, i) -> tuple:
    """All (x, y) pairs with relation[x, y] == i, as (xs, ys) index arrays."""
    i = int(i)
    if not 0 <= i < scheme.label_count:
        raise ValueError(f"unknown label {i}")
    xs, ys = np.nonzero(scheme.relation == i)
    if xs.size == 0:
        raise SurjectivityError([i])
    return xs, ys


def _membership(scheme: Scheme, W) -> np.ndarray:
    mask = np.zeros(scheme.label_count, dtype=bool)
    for i in W:
        i = int(i)
        if not 0 <= i < scheme.label_count:
            raise ValueError(f"unknown label {i} in label set")
        mask[i] = True
    return mask


def _fiber_pairs_at(scheme: Scheme, k, ranks):
    """The fiber pairs of label k at the given ranks in row-major order.

    Rows are found from per-row label counts (one bincount per row, built
    once per scheme); only the rows that hold a drawn pair are scanned.
    """
    if scheme._row_counts is None:
        L = scheme.label_count
        counts = np.empty((scheme.space.node_count, L), dtype=np.int32)
        for x, row in enumerate(scheme.relation):
            counts[x] = np.bincount(row, minlength=L)
        scheme._row_counts = counts
    per_row = scheme._row_counts[:, k]
    ends = np.cumsum(per_row)
    xs = np.searchsorted(ends, ranks, side="right")
    offsets = ranks - (ends[xs] - per_row[xs])
    zs = np.empty_like(xs)
    order = np.argsort(xs, kind="stable")
    rows, starts = np.unique(xs[order], return_index=True)
    for x, group in zip(rows, np.split(order, starts[1:])):
        zs[group] = np.flatnonzero(scheme.relation[x] == k)[offsets[group]]
    return xs, zs


def _sample_fiber(scheme: Scheme, k, max_pairs, rng):
    """Fiber pairs, optionally capped to a seeded swap-closed sample.

    The sample draws ranks into the row-major fiber, so it picks the same
    pairs as indexing fiber(scheme, k) would, without scanning the whole
    relation.
    """
    k = int(k)
    count = (int(scheme.fiber_counts[k]) if 0 <= k < scheme.label_count
             else 0)
    if max_pairs is None or count <= max_pairs:
        xs, zs = fiber(scheme, k)
        return xs, zs, False
    idx = rng.choice(count, size=max_pairs, replace=False)
    sx, sz = _fiber_pairs_at(scheme, k, idx)
    if scheme.label_space.involution[k] == k:
        # swap-closure keeps commutativity comparisons exact on
        # symmetric schemes
        n = scheme.space.node_count
        keys = np.concatenate([sx.astype(np.int64) * n + sz,
                               sz.astype(np.int64) * n + sx])
        keys = np.unique(keys)
        sx, sz = keys // n, keys % n
        inside = scheme.relation[sx, sz] == k
        sx, sz = sx[inside], sz[inside]
    return sx, sz, True


def joint_table(left, right, weights, L) -> np.ndarray:
    """h[a, b]: the mass of the y with left[y] == a and right[y] == b.

    Each cell sums in increasing y. CAS2 tables, structure constants and
    convolutions all come from here, so they share that order.
    """
    keys = left.astype(np.int64) * L + right
    return np.bincount(keys, weights=weights, minlength=L * L).reshape(L, L)


# a chunk of pairs keeps each of its (pairs, n) temporaries near this size
_CHUNK_ENTRIES = 1 << 20


def _chunk_step(n, KK):
    """(pairs per chunk, segment id dtype) for tables of KK cells over n
    nodes: a chunk's (pairs, n) and (pairs, KK) temporaries stay near
    _CHUNK_ENTRIES entries."""
    step = max(1, _CHUNK_ENTRIES // max(n, KK))
    # segment ids stay below step * max(n, KK), which fits in int32
    # unless a table alone has more than 2**31 cells
    return step, np.int32 if step * max(n, KK) < 2**31 else np.int64


def _cell_keys(relation, xs, zs, K, itype, left, right):
    """keys[p, y] = left[relation[x, y]] * K + right[relation[y, z]] for
    the pairs (xs[p], zs[p]) (the labels themselves when left is None)."""
    rows = relation[xs]
    cols = relation[:, zs].T
    if left is not None:
        rows, cols = left[rows], right[cols]
    keys = np.multiply(rows, K, dtype=itype)
    keys += cols
    return keys


def _table_reduction(relation, weights, xs, zs, K, left=None, right=None,
                     skew=False):
    """(sum, min, max) over the pairs of their K x K joint tables h, and
    with skew the largest entry of h - h^T.

    The table of (x, z) counts y at cell left[relation[x, y]] * K +
    right[relation[y, z]] (the labels themselves when left is None). Each
    pair's cells are segments summed in increasing y by one bincount:
    whole tables per chunk of pairs when K * K <= n, else cut from a
    stable sort of each row. Min and max scatter over the touched cells
    only; a cell some pair leaves untouched also takes that pair's 0. The
    sum adds the pairs' cells in pair order, as h0 + h1 + ... would. The
    skew compares a touched cell with its transpose in the same pair (0
    if untouched), which is enough: h - h^T is antisymmetric.
    """
    n = weights.size
    KK = K * K
    total = np.zeros(KK)
    lo = np.full(KK, np.inf)
    hi = np.full(KK, -np.inf)
    worst = 0.0
    step, itype = _chunk_step(n, KK)
    if KK <= n:
        base = np.arange(step, dtype=itype)[:, None] * KK
        wtile = np.tile(weights, step)
    else:
        hits = np.zeros(KK, dtype=np.int64)
        flip = np.arange(KK).reshape(K, K).T.ravel()
    for s in range(0, len(xs), step):
        keys = _cell_keys(relation, xs[s:s + step], zs[s:s + step], K,
                          itype, left, right)
        C = len(keys)
        if KK <= n:
            keys += base[:C]
            tables = np.bincount(keys.ravel(), weights=wtile[:C * n],
                                 minlength=C * KK).reshape(C, KK)
            np.minimum(lo, tables.min(axis=0), out=lo)
            np.maximum(hi, tables.max(axis=0), out=hi)
            if skew:
                h = tables.reshape(C, K, K)
                worst = max(worst, float((h - h.transpose(0, 2, 1)).max()))
            # an axis-0 sum adds row after row: pair order
            tables[0] += total
            total = tables.sum(axis=0)
            continue
        order = np.argsort(keys, axis=1, kind="stable")
        keys.sort(axis=1)
        starts = np.ones(keys.shape, dtype=bool)
        starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
        values = np.bincount(np.cumsum(starts.ravel(), dtype=itype) - 1,
                             weights=weights.take(order).ravel())
        cells = keys[starts]
        np.minimum.at(lo, cells, values)
        np.maximum.at(hi, cells, values)
        np.add.at(hits, cells, 1)
        np.add.at(total, cells, values)
        if skew:
            # segment ids pair * KK + cell run in increasing order
            pair = np.repeat(np.arange(C) * KK, starts.sum(axis=1))
            seg, mate = pair + cells, pair + flip[cells]
            at = np.minimum(np.searchsorted(seg, mate), len(seg) - 1)
            mirror = np.where(seg[at] == mate, values[at], 0.0)
            worst = max(worst, float((values - mirror).max()))
    if KK > n:
        partial = hits < len(xs)
        np.minimum(lo, 0.0, out=lo, where=partial)
        np.maximum(hi, 0.0, out=hi, where=partial)
    stats = total.reshape(K, K), lo.reshape(K, K), hi.reshape(K, K)
    return stats + (worst,) if skew else stats


def _label_map(A):
    """label -> set index when the rows of A are disjoint 0/1 label sets
    (labels in no set go to len(A)); None when some label is in two."""
    if not (np.isin(A, (0.0, 1.0)).all() and (A.sum(axis=0) <= 1).all()):
        return None
    return np.where(A.any(axis=0), A.argmax(axis=0), len(A))


def pair_table_stats(relation, weights, L, xs, zs, A=None, B=None):
    """Reduce the CAS2 tables of the pairs (xs[p], zs[p]).

    The table of (x, z) is joint_table(relation[x, :], relation[:, z]),
    so entry [i, j] is the mass of the y with relation[x, y] == i and
    relation[y, z] == j. Returns (sum, min, max, first): the sum of the
    raw tables and the entrywise min, max and first value of the tables
    projected as A @ h @ B.T (unprojected when A is None).

    Disjoint label sets project by mapping each label to its set (the
    rest to one more set), so a projected cell sums its y in increasing
    order; overlapping sets project each pair's table densely.
    """
    if A is not None:
        left, right = _label_map(A), _label_map(B)
        if left is None or right is None:
            return _projected_pair_stats(relation, weights, L, xs, zs, A, B)
    first = joint_table(relation[xs[0]], relation[:, zs[0]], weights, L)
    total, lo, hi = _table_reduction(relation, weights, xs, zs, L)
    if A is None:
        return total, lo, hi, first
    K = max(len(A), len(B)) + 1
    _, lo, hi = _table_reduction(relation, weights, xs, zs, K, left, right)
    return total, lo[:len(A), :len(B)], hi[:len(A), :len(B)], A @ first @ B.T


def _projected_pair_stats(relation, weights, L, xs, zs, A, B):
    """pair_table_stats for overlapping label sets: one dense table and
    projection per pair."""
    h = joint_table(relation[xs[0]], relation[:, zs[0]], weights, L)
    total = h.copy()
    first = A @ h @ B.T
    lo, hi = first.copy(), first.copy()
    for x, z in zip(xs[1:], zs[1:]):
        h = joint_table(relation[x], relation[:, z], weights, L)
        total += h
        v = A @ h @ B.T
        np.minimum(lo, v, out=lo)
        np.maximum(hi, v, out=hi)
    return total, lo, hi, first


def row_masses(scheme: Scheme, weights=None) -> np.ndarray:
    """rowmass[x, i]: the mass (weights by default) of relation row x on i."""
    w = scheme.space.weights if weights is None else weights
    L = scheme.label_count
    return np.stack([np.bincount(row, weights=w, minlength=L)
                     for row in scheme.relation])


def intersection_number(scheme: Scheme, W, W_prime, k,
                        max_pairs=None, seed=0):
    """Mean and spread of the CAS2 quantity over the fiber of k.

    For each (x, z) in the fiber computes the measure of intermediate
    nodes y with relation[x, y] in W and relation[y, z] in W_prime, then
    returns (mean, max - min). With max_pairs set, a seeded swap-closed
    sample of fiber pairs is used instead of the full fiber.
    """
    # W and W' as the two-set partitions {W, rest}: cell [0, 0] is the value
    left = np.where(_membership(scheme, W), 0, 1)
    right = np.where(_membership(scheme, W_prime), 0, 1)
    rng = np.random.default_rng(seed)
    xs, zs, _ = _sample_fiber(scheme, k, max_pairs, rng)
    total, lo, hi = _table_reduction(scheme.relation, scheme.space.weights,
                                     xs, zs, 2, left, right)
    return float(total[0, 0] / xs.size), float(hi[0, 0] - lo[0, 0])


@dataclass
class CasReport:
    """Axiom-check evidence for one scheme against one Borel family.

    Deviations are max - min over (sampled) fiber pairs, in measure
    units. commutative is defined as cas4_max_deviation <= tolerance.
    """

    cas1_ok: bool
    cas3_ok: bool
    cas2_max_deviation: float
    cas4_max_deviation: float
    symmetric: bool
    commutative: bool
    borel_family_descriptor: str
    involution_identity_max_deviation: float
    row_valency_max_deviation: float
    pushforward_max_deviation: float
    tolerance: float
    diagonal_slack: int
    labels_checked: int
    sampled: bool
    witnesses: dict = field(default_factory=dict)

    def passed(self) -> bool:
        """True when the structural axioms hold and every deviation is
        within tolerance. CAS4/CAS5 are descriptive, not required."""
        return (self.cas1_ok and self.cas3_ok
                and self.cas2_max_deviation <= self.tolerance
                and self.involution_identity_max_deviation <= self.tolerance
                and self.row_valency_max_deviation <= self.tolerance
                and self.pushforward_max_deviation <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "cas1_ok": self.cas1_ok,
            "cas3_ok": self.cas3_ok,
            "cas2_max_deviation": self.cas2_max_deviation,
            "cas4_max_deviation": self.cas4_max_deviation,
            "symmetric": self.symmetric,
            "commutative": self.commutative,
            "borel_family_descriptor": self.borel_family_descriptor,
            "involution_identity_max_deviation":
                self.involution_identity_max_deviation,
            "row_valency_max_deviation": self.row_valency_max_deviation,
            "pushforward_max_deviation": self.pushforward_max_deviation,
            "tolerance": self.tolerance,
            "diagonal_slack": self.diagonal_slack,
            "labels_checked": self.labels_checked,
            "sampled": self.sampled,
            "witnesses": self.witnesses,
        }


def resolve_borel_family(scheme: Scheme, borel_family):
    """Normalize a family spec to a list of label tuples plus a descriptor."""
    L = scheme.label_count
    if borel_family is None or borel_family == "singletons":
        return [(i,) for i in range(L)], f"singletons ({L} sets)"
    if borel_family == "pairs":
        sets = [(i,) for i in range(L)]
        sets += [(i, j) for i in range(L) for j in range(i + 1, L)]
        return sets, f"singletons and pairs ({len(sets)} sets)"
    if borel_family == "bins":
        if scheme.borel_bins is None:
            raise ValueError("scheme carries no stored bin family")
        return [tuple(W) for W in scheme.borel_bins], \
            f"stored bins ({len(scheme.borel_bins)} sets)"
    sets = [tuple(int(i) for i in W) for W in borel_family]
    if not sets:
        raise ValueError("borel family must be non-empty")
    for W in sets:
        for i in W:
            if not 0 <= i < L:
                raise ValueError(f"unknown label {i} in borel family set "
                                 f"{W} (labels are 0..{L - 1})")
    return sets, f"caller-supplied ({len(sets)} sets)"


def verify_cas(scheme: Scheme, borel_family=None, tolerance: float = 0.0,
               diagonal_slack: int = 0, max_pairs_per_fiber=None,
               seed: int = 0) -> CasReport:
    """Measure the association-scheme axioms over a generating family.

    borel_family: None/"singletons" (default), "pairs", "bins" (the
    scheme's stored family), or an explicit list of label sets.
    max_pairs_per_fiber caps the per-fiber pair count with a seeded
    swap-closed sample. Memory scales with label_count**2.

    In addition to CAS1..CAS5 the report carries the fiber-transpose
    identity deviation (p_{W,W'}^k vs p_{W'^T,W^T}^{k^T}) and the
    product-measure pushforward identity, including row-valency constancy.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    rel = scheme.relation
    w = scheme.space.weights
    n = scheme.space.node_count
    L = scheme.label_count
    inv = scheme.label_space.involution
    i0 = scheme.label_space.identity_label
    rng = np.random.default_rng(seed)
    witnesses: dict = {}

    # CAS1: identity fiber vs diagonal
    if i0 is None:
        cas1_ok = False
        witnesses["cas1"] = [{"detail": "no identity label declared"}]
    else:
        diag = rel.diagonal()
        bad_diag = np.nonzero(diag != i0)[0]
        off = rel == i0
        off[np.arange(n), np.arange(n)] = False
        off_x, off_y = np.nonzero(off)
        cas1_ok = bad_diag.size == 0 and off_x.size <= diagonal_slack
        if not cas1_ok:
            items = [{"pair": (int(x), int(x)), "label": int(diag[x])}
                     for x in bad_diag[:5]]
            items += [{"pair": (int(a), int(b)), "label": int(i0)}
                      for a, b in zip(off_x[:5], off_y[:5])]
            witnesses["cas1"] = items

    # CAS3: relation transpose matches the involution table
    # in the relation's dtype, so the n x n temporary is no wider than it
    mism_x, mism_y = np.nonzero(inv.astype(rel.dtype)[rel] != rel.T)
    cas3_ok = mism_x.size == 0
    if not cas3_ok:
        witnesses["cas3"] = [
            {"pair": (int(a), int(b)),
             "label": int(rel[a, b]), "transposed_label": int(rel[b, a])}
            for a, b in zip(mism_x[:5], mism_y[:5])]

    symmetric = scheme.label_space.is_symmetric()

    family, descriptor = resolve_borel_family(scheme, borel_family)
    singleton = (len(family) == L
                 and all(family[i] == (i,) for i in range(L)))
    F = len(family)
    if F * F > 50_000_000:
        raise ValueError(
            f"borel family has {F} sets; the {F}x{F} deviation tables "
            f"would not fit in memory")
    M = MT = None
    if not singleton:
        M = np.zeros((F, L))
        for f, W in enumerate(family):
            M[f, list(W)] = 1.0
        # W^T holds j exactly when W holds inv[j]
        MT = M[:, inv]

    # involution orbits of labels, each led by its smaller label
    orbits = [(k, int(inv[k])) for k in range(L) if k <= inv[k]]

    sampled = False
    cas2_max = 0.0
    cas2_arg = None
    cas4_max = 0.0
    inv_id_max = 0.0
    labels_checked = 0

    def sample(k):
        nonlocal sampled
        xs, zs, was_sampled = _sample_fiber(scheme, k, max_pairs_per_fiber, rng)
        sampled = sampled or was_sampled
        return xs, zs

    def stats(xs, zs):
        total, lo, hi, _ = pair_table_stats(rel, w, L, xs, zs, M, M)
        return total / xs.size, lo, hi

    for k, kt in orbits:
        xs, zs = sample(k)
        per_orbit = [(k, *stats(xs, zs))]
        if kt != k:
            if cas3_ok:
                # fiber(k^T) sampled as the transpose of fiber(k)'s sample
                # keeps the transpose identity exact under sampling
                xs, zs = zs, xs
            else:
                # invalid schemes: the transposed sample may leave the
                # fiber, fall back to an independent sample
                xs, zs = sample(kt)
            per_orbit.append((kt, *stats(xs, zs)))
        for lab, mean, lo, hi in per_orbit:
            labels_checked += 1
            dev = hi - lo
            dmax = float(dev.max())
            if dmax > cas2_max:
                cas2_max = dmax
                f1, f2 = np.unravel_index(int(np.argmax(dev)), dev.shape)
                cas2_arg = (lab, family[f1], family[f2],
                            float(lo[f1, f2]), float(hi[f1, f2]))
            values = mean if singleton else M @ mean @ M.T
            cas4_max = max(cas4_max, float(np.abs(values - values.T).max()))
        # transpose identity: p_{W1,W2}^k vs p_{W2^T,W1^T}^{k^T}
        mean_k, mean_kt = per_orbit[0][1], per_orbit[-1][1]
        if singleton:
            # the check from k^T is a permutation of this one
            dev = mean_k - mean_kt[np.ix_(inv, inv)].T
        else:
            # a family need not be closed under ^T: check from k and k^T
            dev = np.concatenate([M @ a @ M.T - (MT @ b @ MT.T).T
                                  for a, b in ((mean_k, mean_kt),
                                               (mean_kt, mean_k))])
        inv_id_max = max(inv_id_max, float(np.abs(dev).max()))

    if cas2_arg is not None and cas2_max > tolerance:
        lab, Wset, Wpset, vmin, vmax = cas2_arg
        witnesses["cas2"] = [{
            "fiber_label": int(lab), "W": list(Wset), "W_prime": list(Wpset),
            "min_value": vmin, "max_value": vmax, "deviation": cas2_max}]

    # pushforward identity and row-valency constancy
    rowmass = row_masses(scheme)
    row_valency_max = float((rowmass.max(axis=0) - rowmass.min(axis=0)).max())
    fibermass = w @ rowmass
    push_dev = np.abs(rowmass * scheme.space.total_mass - fibermass)
    pushforward_max = float(push_dev.max())
    if row_valency_max > tolerance:
        i = int(np.argmax(rowmass.max(axis=0) - rowmass.min(axis=0)))
        witnesses["row_valency"] = [{
            "label": i,
            "min_row_mass": float(rowmass[:, i].min()),
            "max_row_mass": float(rowmass[:, i].max())}]

    commutative = cas4_max <= tolerance
    return CasReport(
        cas1_ok=bool(cas1_ok), cas3_ok=bool(cas3_ok),
        cas2_max_deviation=cas2_max, cas4_max_deviation=cas4_max,
        symmetric=symmetric, commutative=commutative,
        borel_family_descriptor=descriptor,
        involution_identity_max_deviation=inv_id_max,
        row_valency_max_deviation=row_valency_max,
        pushforward_max_deviation=pushforward_max,
        tolerance=float(tolerance), diagonal_slack=int(diagonal_slack),
        labels_checked=labels_checked, sampled=sampled,
        witnesses=witnesses)


# ---------------------------------------------------------------------------
# scheme file format


# a block of relation rows keeps its gathered bytes near this size
_WRITE_BLOCK_BYTES = 1 << 22


def _label_bytes(L, end):
    """(L, W) uint8 table: label i's decimal digits, then end, then zero
    padding to the width of the widest label."""
    text = np.array([b"%d%s" % (i, end) for i in range(L)])
    return text.view(np.uint8).reshape(L, text.itemsize)


def write_scheme(scheme: Scheme, path, recipe: Optional[str] = None) -> None:
    """Write the `#casmat-scheme v1` text format (bit-exact round trip).

    Relation rows are gathered from a per-label byte table in blocks of
    rows, so entries are never formatted one by one.
    """
    ls = scheme.label_space
    lines = [SCHEME_HEADER]
    if recipe:
        lines.append(f"recipe {recipe}")
    lines.append(f"nodes {scheme.space.node_count}")
    lines.append("weights")
    ws = [repr(float(v)) for v in scheme.space.weights]
    for start in range(0, len(ws), 6):
        lines.append(" ".join(ws[start:start + 6]))
    lines.append(f"labels {ls.size}")
    for i in range(ls.size):
        line = f"{i} {int(ls.involution[i])}"
        if ls.bin_meta is not None and ls.bin_meta[i] is not None:
            a, b = ls.bin_meta[i]
            line += f" {repr(a)} {repr(b)}"
        lines.append(line)
    if ls.identity_label is None:
        lines.append("identity none")
    else:
        lines.append(f"identity {ls.identity_label}")
    if scheme.borel_bins is not None:
        lines.append(f"binfamily {len(scheme.borel_bins)}")
        for W in scheme.borel_bins:
            lines.append(" ".join(str(i) for i in W))
    lines.append("relation")
    rel = scheme.relation
    spaced, ended = _label_bytes(ls.size, b" "), _label_bytes(ls.size, b"\n")
    rows = max(1, _WRITE_BLOCK_BYTES // (rel.shape[1] * spaced.shape[1]))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for start in range(0, rel.shape[0], rows):
            block = rel[start:start + rows]
            text = np.take(spaced, block, axis=0)
            text[:, -1] = ended[block[:, -1]]
            # the padding is the only zero byte
            fh.write(text[text != 0])


class _LineReader:
    """The lines of a text file as str.splitlines() of its whole text
    would give them, numbered from 1, read one physical line at a time."""

    def __init__(self, fh):
        self.fh = fh
        self.lineno = 0
        # the rest of the last physical line, split at \f, \v and the
        # other breaks that splitlines() knows beyond \n, in reverse
        self.pending = []

    def next_content(self):
        """(line number, stripped text) of the next non-blank line, or
        (None, None) at the end of the file."""
        while True:
            if not self.pending:
                line = self.fh.readline()
                if not line:
                    return None, None
                self.pending = line.splitlines()[::-1]
            self.lineno += 1
            text = self.pending.pop().strip()
            if text:
                return self.lineno, text

    def relation_block(self, n, dtype):
        """The next n lines as an n x n relation from one np.loadtxt call,
        or None with the reader left where it was."""
        if self.pending:
            return None
        start = self.fh.tell()
        rel = _load_relation_block(self.fh, n, dtype)
        if rel is None:
            self.fh.seek(start)
        return rel


# line breaks of str.splitlines() that np.loadtxt reads as spaces
_ASCII_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e")


def _load_relation_block(fh, n, dtype):
    """n x n relation of dtype streamed from the next n lines of fh, or
    None when they are not n lines of n plain entries each.

    np.loadtxt holds only its result, never the text. A blank line, a
    line that splitlines() would break, or a value out of dtype's range
    refuses the block rather than let loadtxt skip or read it differently
    from the row loop.
    """
    def rows():
        for _ in range(n):
            line = fh.readline()
            if (not line or line.isspace() or not line.isascii()
                    or any(c in line for c in _ASCII_BREAKS)):
                raise ValueError("not a plain relation row")
            yield line

    if n <= 0:
        return None
    try:
        rel = np.loadtxt(rows(), dtype=dtype, comments=None, ndmin=2,
                         max_rows=n)
    except (ValueError, OverflowError):
        return None
    return rel if rel.shape == (n, n) else None


def read_scheme(path) -> Scheme:
    """Parse a `#casmat-scheme v1` file; errors carry the line number.

    The file is streamed: header lines are read one at a time and the
    relation block goes straight into label_dtype, so no copy of the
    file's text is held. A block the one-call parse refuses is read
    again, row by row, to name the faulty line.
    """
    with open(path) as fh:
        return _read_scheme(_LineReader(fh))


def _read_scheme(reader) -> Scheme:
    def fail(msg, lineno):
        raise ParseError(msg, line=lineno)

    lineno, text = reader.next_content()
    if lineno != 1 or text != SCHEME_HEADER:
        fail(f"expected header {SCHEME_HEADER!r}", 1)
    lineno, text = reader.next_content()
    if text is not None and text.startswith("recipe"):
        lineno, text = reader.next_content()
    if text is None or not text.startswith("nodes "):
        fail("expected 'nodes <count>'", lineno)
    try:
        n = int(text.split()[1])
    except (IndexError, ValueError):
        fail("malformed node count", lineno)
    lineno, text = reader.next_content()
    if text != "weights":
        fail("expected 'weights' section", lineno)
    weights = []
    while len(weights) < n:
        lineno, text = reader.next_content()
        if text is None:
            fail(f"expected {n} weights, got {len(weights)}", lineno)
        try:
            weights.extend(float(t) for t in text.split())
        except ValueError:
            fail(f"malformed weight in {text!r}", lineno)
    if len(weights) != n:
        fail(f"expected exactly {n} weights, got {len(weights)}", lineno)

    lineno, text = reader.next_content()
    if text is None or not text.startswith("labels "):
        fail("expected 'labels <count>'", lineno)
    try:
        L = int(text.split()[1])
    except (IndexError, ValueError):
        fail("malformed label count", lineno)
    involution = np.zeros(L, dtype=np.int64)
    bin_meta: list = [None] * L
    any_bins = False
    seen = set()
    for _ in range(L):
        lineno, text = reader.next_content()
        if text is None:
            fail("label table ended early", lineno)
        parts = text.split()
        if len(parts) not in (2, 4):
            fail(f"label record needs 2 or 4 fields, got {len(parts)}", lineno)
        try:
            lid, linv = int(parts[0]), int(parts[1])
        except ValueError:
            fail("malformed label ids", lineno)
        if not 0 <= lid < L:
            fail(f"label id {lid} out of range", lineno)
        if lid in seen:
            fail(f"duplicate record for label {lid}", lineno)
        seen.add(lid)
        involution[lid] = linv
        if len(parts) == 4:
            try:
                bin_meta[lid] = (float(parts[2]), float(parts[3]))
            except ValueError:
                fail("malformed bin interval", lineno)
            any_bins = True

    lineno, text = reader.next_content()
    if text is None or not text.startswith("identity"):
        fail("expected 'identity <id|none>'", lineno)
    token = text.split()[1] if len(text.split()) > 1 else ""
    identity = None
    if token != "none":
        try:
            identity = int(token)
        except ValueError:
            fail("malformed identity label", lineno)

    lineno, text = reader.next_content()
    borel_bins = None
    if text is not None and text.startswith("binfamily"):
        try:
            n_sets = int(text.split()[1])
        except (IndexError, ValueError):
            fail("malformed binfamily count", lineno)
        borel_bins = []
        for _ in range(n_sets):
            lineno, text = reader.next_content()
            if text is None:
                fail("binfamily ended early", lineno)
            try:
                borel_bins.append(tuple(int(t) for t in text.split()))
            except ValueError:
                fail("malformed binfamily record", lineno)
        lineno, text = reader.next_content()
    if text != "relation":
        fail("expected 'relation' section", lineno)
    rel = reader.relation_block(n, label_dtype(L))
    if rel is None:
        # the row loop finds the exact line and message of the fault
        rel = np.zeros((n, n), dtype=np.int64)
        for r in range(n):
            lineno, text = reader.next_content()
            if text is None:
                fail(f"relation matrix ended early at row {r}", lineno)
            parts = text.split()
            if len(parts) != n:
                fail(f"relation row {r} has {len(parts)} entries, "
                     f"expected {n}", lineno)
            try:
                rel[r] = [int(t) for t in parts]
            except ValueError:
                fail(f"malformed relation entry in row {r}", lineno)
            except OverflowError:
                fail("relation entries must lie in 0..label_count-1", lineno)

    try:
        space = make_quadrature(weights)
        label_space = LabelSpace(involution=involution, identity_label=identity,
                                 bin_meta=tuple(bin_meta) if any_bins else None)
        return Scheme._adopt(space, label_space, rel, borel_bins=borel_bins)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
