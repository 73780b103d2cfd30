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

import bisect
import hashlib
import math
import numbers
import shlex
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import ParseError, _LineReader
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


# a block of relation rows walked at once stays near this many entries
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
    recipe is the recipe line of the file or catalog call that made the
    scheme, or None; verify_cas checks the symmetries it names. digest is
    the "sha256:..." of the file read_scheme read it from, or None.
    """

    __slots__ = ("space", "label_space", "relation", "borel_bins",
                 "fiber_counts", "recipe", "digest", "_row_counts",
                 "_certificate")

    def __init__(self, space: MeasureSpace, label_space: LabelSpace,
                 relation, borel_bins=None):
        self._setup(space, label_space, np.asarray(relation), borel_bins,
                    copy=True)

    @classmethod
    def _adopt(cls, space, label_space, relation, borel_bins=None,
               counts=None):
        """A Scheme over a relation array that nothing else holds: it is
        narrowed without a copy when already in label_dtype, and frozen
        in place. For readers and builders that made the array. counts,
        when given, are the label counts of a relation whose range the
        caller has checked."""
        scheme = cls.__new__(cls)
        scheme._setup(space, label_space, relation, borel_bins, copy=False,
                      counts=counts)
        return scheme

    def _setup(self, space, label_space, rel, borel_bins, copy, counts=None):
        n = space.node_count
        if rel.shape != (n, n):
            raise ValueError(f"relation has shape {rel.shape}, expected ({n}, {n})")
        if not np.issubdtype(rel.dtype, np.integer):
            raise ValueError("relation entries must be integer label ids")
        L = label_space.size
        counts = _label_counts(rel, L) if counts is None else counts
        missing = np.nonzero(counts == 0)[0]
        if missing.size:
            raise SurjectivityError(missing.tolist())
        rel = rel.astype(label_dtype(L), copy=copy)
        rel.setflags(write=False)
        self.space = space
        self.label_space = label_space
        self.relation = rel
        self.fiber_counts = counts
        self.recipe = self.digest = self._row_counts = self._certificate = None
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


def _index(value, count, refusal):
    """value as an int when it is an integer in 0..count-1; anything else
    raises ValueError(refusal), so no index wraps around or is truncated."""
    if isinstance(value, numbers.Integral) and 0 <= value < count:
        return int(value)
    raise ValueError(refusal)


def _check_tolerance(tolerance):
    """Refuse a negative or NaN tolerance; inf passes every check."""
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")


def _check_sample_size(value, name):
    """Refuse a sample size that is not an integer, as _index does,
    naming the parameter, or that is below 1; None, no sample, passes."""
    if value is not None and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value is not None and value < 1:
        raise ValueError(f"a fiber sample needs at least 1 pair, got {value}")


def _check_count(value, name, least):
    """Refuse a count that is not an integer >= least, naming it."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def fiber(scheme: Scheme, i) -> tuple:
    """All (x, y) pairs with relation[x, y] == i, as (xs, ys) index arrays
    in row-major order, found a block of rows at a time."""
    i = _index(i, scheme.label_count, f"unknown label {i}")
    return _fiber_scan(scheme.relation, i, int(scheme.fiber_counts[i]))


def _row_blocks(array):
    """(first row, block) for consecutive blocks of array's rows, each
    near _COUNT_BLOCK_ENTRIES entries: every walk over a relation, or a
    table the size of one, reads it through here."""
    rows = max(1, _COUNT_BLOCK_ENTRIES // max(array.shape[1], 1))
    for a in range(0, array.shape[0], rows):
        yield a, array[a:a + rows]


def _label_counts(relation, L):
    """How many entries of relation hold each label, counted a block of
    rows at a time: one bincount over all n * n entries would first copy
    them to intp. Each block's range is checked before it is counted."""
    counts = np.zeros(L, dtype=np.int64)
    for _, block in _row_blocks(relation):
        if block.min() < 0 or block.max() >= L:
            raise ValueError("relation entries must lie in 0..label_count-1")
        counts += np.bincount(block.ravel(), minlength=L)
    return counts


def _fiber_scan(relation, i, count):
    """The first count pairs (xs, ys) with relation[x, y] == i, in
    row-major order, found a block of rows at a time; the scan stops at
    the block that holds the last of them."""
    xs, ys = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)
    at = 0
    for a, block in _row_blocks(relation):
        bx, by = _block_pairs(block == i, a)
        take = min(bx.size, count - at)
        xs[at:at + take], ys[at:at + take] = bx[:take], by[:take]
        at += take
        if at == count:
            break
    return xs, ys


def _block_pairs(mask, a):
    """(xs, ys) of the True entries of mask, a block of relation rows
    from row a, in row-major order (flatnonzero is the faster scan)."""
    return np.divmod(np.flatnonzero(mask) + a * mask.shape[1], mask.shape[1])


def _membership(scheme: Scheme, W) -> np.ndarray:
    mask = np.zeros(scheme.label_count, dtype=bool)
    for i in W:
        mask[_index(i, scheme.label_count,
                    f"unknown label {i} in label set")] = True
    return mask


def _fiber_pairs_at(scheme: Scheme, k, ranks):
    """The fiber pairs of label k at the given ranks in row-major order.

    Rows are found from per-row label counts (built once per scheme);
    only the rows that hold a drawn pair are compared with k, at once,
    and each pair is its row's start among their hits plus its offset.
    """
    if scheme._row_counts is None:
        scheme._row_counts = _row_masses(scheme.relation, None,
                                         scheme.label_count)
    per_row = scheme._row_counts[:, k]
    ends = np.cumsum(per_row)
    xs = np.searchsorted(ends, ranks, side="right")
    offsets = ranks - (ends[xs] - per_row[xs])
    rows, at = np.unique(xs, return_inverse=True)
    starts = np.cumsum(per_row[rows]) - per_row[rows]
    hits = np.flatnonzero(scheme.relation[rows] == k)
    return xs, hits[starts[at] + offsets] % scheme.space.node_count


def _sample_fiber(scheme: Scheme, k, max_pairs, rng):
    """Fiber pairs, optionally capped to a seeded swap-closed sample.

    The sample draws ranks into the row-major fiber, so it picks the same
    pairs as indexing fiber(scheme, k) would, without scanning the whole
    relation.
    """
    k = _index(k, scheme.label_count, f"unknown label {k}")
    count = int(scheme.fiber_counts[k])
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


def _orbit_minima(images, size):
    """Smallest member of each point's orbit under permutations of
    0..size-1: pull minima along each permutation and its inverse, jump
    pointers, and repeat until a round changes nothing."""
    steps = [p for img in images for p in (img, np.argsort(img))]
    low = np.arange(size)
    while True:
        prev = low
        for p in steps:
            low = np.minimum(low, low[p])
        low = low[low]
        if np.array_equal(low, prev):
            return low


def _recipe_generators(recipe, n):
    """Candidate symmetries of n nodes named by a recipe line: x -> x + 1
    mod n for cyclic and circle, hamming's unit translations in
    itertools.product node order, group's generators. Other kinds, lines
    that do not parse and candidates that are not permutations give none."""
    idx = np.arange(n)
    try:
        kind, *tokens = shlex.split(recipe or "")
        params = dict(token.split("=", 1) for token in tokens)
        gens = [(idx + 1) % n] if kind in ("cyclic", "circle") else []
        if kind == "hamming":
            # the words in itertools.product order, as a d-cube of nodes
            cube = idx.reshape((int(params["q"]),) * min(int(params["d"]), 64))
            gens = [np.roll(cube, -1, j).ravel() for j in range(cube.ndim)]
        if kind == "group":
            gens = [np.array([int(v) for v in g.split(",")])
                    for g in params["generators"].split(";")]
    except (ValueError, KeyError):
        return []
    ok = all(g.shape == (n,) and np.array_equal(np.sort(g), idx) for g in gens)
    return gens if ok else []


def _symmetry_fault(relation, weights, gens):
    """The first fault of gens as symmetries, as a witness: for the first
    generator g with one, a pair (x, y) with R(gx, gy) != R(x, y), found a
    row block at a time, or a node x with w(gx) != w(x) (positive weights:
    equal values are equal bits); else a node the orbit of 0 misses."""
    for j, g in enumerate(gens):
        for a, block in _row_blocks(relation):
            bad = np.argwhere(relation[g[a:a + len(block)]][:, g] != block)
            if bad.size:
                return {"route": "full", "not_invariant": [
                    a + int(bad[0, 0]), int(bad[0, 1])], "generator": j}
        moved = np.flatnonzero(weights[g] != weights)
        if moved.size:
            return {"route": "full", "weight_not_invariant": int(moved[0]),
                    "generator": j}
    missed = np.flatnonzero(_orbit_minima(gens, weights.size))
    if missed.size:
        return {"route": "full", "unreached": int(missed[0])}


def _certificate(scheme: Scheme, max_pairs=None) -> dict:
    """What verify_cas goes by, checked once per scheme: {} when a cap of
    max_pairs samples a fiber or the recipe names no symmetry, else
    _symmetry_fault's witness or, with none, {"route": "symmetry"}: each
    fiber pair then has the tables of a pair (0, z) of the base row."""
    if max_pairs is not None and (scheme.fiber_counts > max_pairs).any():
        return {}
    if scheme._certificate is None:
        w = scheme.space.weights
        gens = _recipe_generators(scheme.recipe, w.size)
        scheme._certificate = gens and (
            _symmetry_fault(scheme.relation, w, gens)
            or {"route": "symmetry", "generators": len(gens)}) or {}
    return scheme._certificate


def joint_table(left, right, weights, L) -> np.ndarray:
    """h[a, b]: the mass of the y with left[y] == a and right[y] == b.

    Each cell sums in increasing y; _reduce_cells sums its tables in the
    same order.
    """
    keys = left.astype(np.int64) * L + right
    return np.bincount(keys, weights=weights, minlength=L * L).reshape(L, L)


# a chunk of pairs keeps each of its (pairs, n) temporaries near this size
_CHUNK_ENTRIES = 1 << 20
# a chunk of a touched-cell reduction keeps its (pairs, n) keys near this
# size: measured in fresh processes, larger chunks cost more in page
# faults than they save in per-chunk work
_TOUCHED_ENTRIES = 1 << 15


def _chunk_step(n, KK):
    """(pairs per chunk, column id dtype) for tables of KK cells over n
    nodes. When KK <= n a chunk's (pairs, n) and (pairs, KK) temporaries
    stay near _CHUNK_ENTRIES entries. Otherwise its (pairs, n) keys stay
    near _TOUCHED_ENTRIES, and the first chunk's (pairs, M) tables, over
    the M <= min(KK, pairs * n) cells it touches, within _CHUNK_ENTRIES
    (_reduce_cells shortens later chunks as M grows)."""
    if KK <= n:
        step = max(1, _CHUNK_ENTRIES // n)
    else:
        step = max(1, min(_TOUCHED_ENTRIES // n,
                          max(_CHUNK_ENTRIES // KK,
                              math.isqrt(_CHUNK_ENTRIES // n))))
    # column ids stay below step * max(n, KK), which fits in int32
    # unless a table alone has more than 2**31 cells
    return step, np.int32 if step * max(n, KK) < 2**31 else np.int64


def _cell_keys(relation, xs, zs, K, left, right, mirrored=False):
    """keys[p, y] = left[relation[x, y]] * K + right[relation[y, z]] for
    the pairs (xs[p], zs[p]) (the labels themselves where a map is None),
    as a (pairs, n) intp array, which bincount reads without a copy. Only
    mapped labels are further (pairs, n) arrays, in the maps' narrow
    dtype. mirrored reads row z for column z: right then already holds
    the involution that maps relation[z, y] to relation[y, z]."""
    rows = relation[xs] if left is None else left[relation[xs]]
    cols = relation[zs] if mirrored else relation[:, zs].T
    if right is not None:
        cols = right[cols]
    keys = np.multiply(rows, K, dtype=np.intp)
    keys += cols
    return keys


class _CellScratch:
    """What the CAS2 reductions of one pass over n nodes share for K x K
    tables, made once per pass: the chunk step, the column map slot (when
    K * K > n, K * K entries that are -1 off the cells a reduction has
    numbered; each reduction resets slot at its own cells), the weight
    tile of a chunk. Given mirror, the involution of a relation that holds
    CAS3, column z is read as row z through it (unless it is identity)."""

    def __init__(self, K, n, mirror=None):
        KK = K * K
        self.K = K
        self.mirrored = mirror is not None
        self.flip = None if mirror is None or (
            mirror == np.arange(mirror.size)).all() else mirror
        self.compact = KK > n
        self.step, self.itype = _chunk_step(n, KK)
        if self.compact:
            self.slot = np.full(KK, -1, dtype=self.itype)
        else:
            self.slot = np.arange(KK, dtype=self.itype)
        self.wtile = np.empty(0)

    def weight_tile(self, weights, pairs):
        """weights repeated for a chunk of up to pairs pairs."""
        need = min(self.step, pairs) * weights.size
        if self.wtile.size < need:
            self.wtile = np.tile(weights, need // weights.size)
        return self.wtile

    def number(self, keys, start):
        """Number the distinct cells among keys, none numbered yet, start,
        start + 1, ... in slot; returns them in that order."""
        rank = np.arange(keys.size, dtype=self.itype)
        self.slot[keys] = rank
        # one position per cell wins the write
        cells = keys[self.slot[keys] == rank]
        self.slot[cells] = np.arange(start, start + cells.size,
                                     dtype=self.itype)
        return cells


def _reduce_cells(relation, weights, xs, zs, scratch, left=None, right=None,
                  skew=False):
    """(cells, sum, min, max, first) over the pairs of their K x K joint
    tables h at the cells the pairs touch, cells in increasing (row-major)
    order, first the table of the first pair; every other cell is 0 in
    all four. With skew also the largest entry of h - h^T. scratch is the
    pass's _CellScratch, or K for a reduction with a scratch of its own.

    The table of (x, z) counts y at cell left[relation[x, y]] * K +
    right[relation[y, z]] (the labels themselves when left is None). One
    bincount per chunk of pairs sums each pair's cells in increasing y,
    with one column per cell: all K * K cells when K * K <= n, else the
    cells the pairs touched so far, numbered through scratch.slot as they
    are first met (the first pair's at once), so a chunk whose pairs meet
    no new cell costs one lookup a key. A cell first met after the first
    chunk starts at 0 in sum, min and max, the value of every earlier
    pair. The sum adds the pairs' cells in pair order, as h0 + h1 + ...
    would; first is h0, row 0 of the first chunk. The skew reads each
    cell's transpose from the same chunk's tables (0 outside the columns).
    """
    if not len(xs):
        raise ValueError("a table reduction needs at least one pair")
    n = weights.size
    if not isinstance(scratch, _CellScratch):
        scratch = _CellScratch(scratch, n)
    K, itype, slot = scratch.K, scratch.itype, scratch.slot
    if scratch.flip is not None:
        right = scratch.flip if right is None else right[scratch.flip]
    # so a chunk's mapped labels are as narrow as they can be
    left, right = (None if m is None else m.astype(label_dtype(K))
                   for m in (left, right))
    wtile = scratch.weight_tile(weights, len(xs))
    cells = None if scratch.compact else slot
    step = scratch.step
    worst = 0.0
    s = 0
    while s < len(xs):
        keys = _cell_keys(relation, xs[s:s + step], zs[s:s + step], K,
                          left, right, scratch.mirrored)
        C = len(keys)
        if scratch.compact:
            if cells is None:
                cells = scratch.number(keys[0], 0)
            cols = slot[keys]
            if cols.min() < 0:
                cells = np.concatenate(
                    [cells, scratch.number(keys[cols < 0], cells.size)])
                cols = slot[keys]
            keys = cols
        M = cells.size
        keys += np.arange(C, dtype=itype)[:, None] * M
        tables = np.bincount(keys.ravel(), weights=wtile[:C * n],
                             minlength=C * M).reshape(C, M)
        if s == 0:
            total, lo, hi = np.zeros(M), tables.min(axis=0), tables.max(axis=0)
            first = tables[0].copy()
        else:
            if M > total.size:
                grow = np.zeros(M - total.size)
                total, lo, hi, first = (np.concatenate([a, grow])
                                        for a in (total, lo, hi, first))
            np.minimum(lo, tables.min(axis=0), out=lo)
            np.maximum(hi, tables.max(axis=0), out=hi)
        if skew:
            mate = slot[cells % K * K + cells // K]
            mirror = np.where(mate >= 0, tables[:, mate], 0.0)
            worst = max(worst, float((tables - mirror).max()))
        # an axis-0 sum adds row after row (pair order), except over one
        # column, which numpy sums pairwise
        tables[0] += total
        total = tables.sum(axis=0) if M > 1 else tables.cumsum()[-1:]
        s += C
        # the next chunk's (C, M) tables stay within _CHUNK_ENTRIES
        step = min(scratch.step, max(1, _CHUNK_ENTRIES // M))
    out = cells, total, lo, hi, first
    if scratch.compact:
        slot[cells] = -1
        order = np.argsort(cells)
        out = tuple(a[order] for a in out)
    return (*out, worst) if skew else out


def _whole_fibers(relation, weights, L, skew=False):
    """For each label k in order, its whole fiber (xs, zs) in row-major
    order and _reduce_cells' (cells, sum, min, max, first) over it, with
    skew also the largest entry of h - h^T: every fiber reduced through one
    scratch."""
    scratch = _CellScratch(L, weights.size)
    for k, count in enumerate(_label_counts(relation, L)):
        xs, zs = _fiber_scan(relation, k, int(count))
        yield (xs, zs, *_reduce_cells(relation, weights, xs, zs, scratch,
                                      skew=skew))


def _label_map(sets, L):
    """label -> set index when the label sets are disjoint (labels in no
    set go to len(sets)); None when some label is in two sets."""
    index = np.full(L, len(sets))
    for f, W in enumerate(sets):
        if (index[list(W)] < len(sets)).any():
            return None
        index[list(W)] = f
    return index


def _family_route(sets, L, inv):
    """(index, sigma): _label_map's index, None for the singletons in label
    order (read as the raw labels; sigma is inv) and for sets that overlap
    (sigma None too). sigma maps each set W to the set W^T = {j : inv[j]
    in W}, and set F (the labels in no set) to itself, if ^T so permutes
    the family; else it is None."""
    if sets == [(i,) for i in range(L)]:
        return None, inv
    index = _label_map(sets, L)
    if index is None:
        return None, None
    F = len(sets)
    sigma = np.arange(F + 1)
    sigma[index] = index[inv]
    closed = (sigma[index] == index[inv]).all() and sigma[F] == F
    return index, sigma if closed else None


def _projected_pair_stats(relation, weights, L, xs, zs, M):
    """(sum, min, max) over the pairs of their L x L joint tables h, the
    sum raw and min, max of the projections M @ h @ M.T: one dense table
    and projection per pair, for label sets that overlap."""
    h = joint_table(relation[xs[0]], relation[:, zs[0]], weights, L)
    total = h.copy()
    lo = M @ h @ M.T
    hi = lo.copy()
    for x, z in zip(xs[1:], zs[1:]):
        h = joint_table(relation[x], relation[:, z], weights, L)
        total += h
        v = M @ h @ M.T
        np.minimum(lo, v, out=lo)
        np.maximum(hi, v, out=hi)
    return total, lo, hi


def _values_at(cells, values, query):
    """values at the query cells, 0 at a query cell not in cells (sorted,
    non-empty)."""
    at = np.minimum(np.searchsorted(cells, query), cells.size - 1)
    return np.where(cells[at] == query, values[at], 0.0)


def _row_masses(relation, weights, L) -> np.ndarray:
    """(n, L) matrix: entry [x, i] is the weight of row x on label i, or
    with weights None its int32 count. One bincount a block of rows: row
    r of a block counts at r * L + label, in increasing y as one bincount
    per row would."""
    out = np.empty((len(relation), L),
                   dtype=np.int32 if weights is None else float)
    wtile = None
    for a, block in _row_blocks(relation):
        r = len(block)
        if wtile is None and weights is not None:
            wtile = np.tile(weights, r)  # the first block is the largest
        keys = (block + np.arange(r)[:, None] * L).ravel()
        out[a:a + r] = np.bincount(
            keys, weights=None if weights is None else wtile[:keys.size],
            minlength=r * L).reshape(-1, L)
    return out


def row_masses(scheme: Scheme, weights=None) -> np.ndarray:
    """rowmass[x, i]: the mass (weights by default) of relation row x on i."""
    w = scheme.space.weights if weights is None else weights
    return _row_masses(scheme.relation, w, scheme.label_count)


def intersection_number(scheme: Scheme, W, W_prime, k,
                        max_pairs=None, seed=0):
    """Mean and spread of the CAS2 quantity over the fiber of k.

    For each (x, z) in the fiber computes the measure of intermediate
    nodes y with relation[x, y] in W and relation[y, z] in W_prime, then
    returns (mean, max - min). With max_pairs set, a seeded swap-closed
    sample of fiber pairs is used instead of the full fiber.
    """
    _check_sample_size(max_pairs, "max_pairs")
    # W and W' as the two-set partitions {W, rest}: cell [0, 0] is the value
    left = np.where(_membership(scheme, W), 0, 1)
    right = np.where(_membership(scheme, W_prime), 0, 1)
    rng = np.random.default_rng(seed)
    xs, zs, _ = _sample_fiber(scheme, k, max_pairs, rng)
    cells, total, lo, hi, _ = _reduce_cells(
        scheme.relation, scheme.space.weights, xs, zs, 2, left, right)
    total, lo, hi = (np.bincount(cells, a, 4)[0] for a in (total, lo, hi))
    return float(total / xs.size), float(hi - lo)


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
        return asdict(self)


def resolve_borel_family(scheme: Scheme, borel_family):
    """Normalize a family spec to a list of label tuples plus a descriptor,
    refusing a family whose F x F deviation tables would not fit in memory."""
    L = scheme.label_count
    if borel_family is None or borel_family == "singletons":
        sets, kind = [(i,) for i in range(L)], "singletons"
    elif borel_family == "pairs":
        sets = [(i,) for i in range(L)] + list(combinations(range(L), 2))
        kind = "singletons and pairs"
    elif borel_family == "bins":
        if scheme.borel_bins is None:
            raise ValueError("scheme carries no stored bin family")
        sets, kind = [tuple(W) for W in scheme.borel_bins], "stored bins"
    else:
        sets = [tuple(_index(i, L, f"unknown label {i} in borel family "
                                   f"set {tuple(W)} (labels are 0..{L - 1})")
                      for i in W) for W in borel_family]
        kind = "caller-supplied"
    if not sets:
        raise ValueError("borel family must be non-empty")
    F = len(sets)
    if F * F > 50_000_000:
        raise ValueError(f"borel family has {F} sets; the {F}x{F} deviation "
                         f"tables would not fit in memory")
    return sets, f"{kind} ({F} sets)"


def _transpose_holds(rel, inv, symmetric):
    """Whether inv[rel[a, b]] == rel[b, a] for every pair (the lookup is
    skipped when symmetric, inv the identity), read in square tiles of
    the walker's _COUNT_BLOCK_ENTRIES: inv is an involution, so each
    unordered pair of tiles is read once."""
    t, n = math.isqrt(_COUNT_BLOCK_ENTRIES), len(rel)
    for a in range(0, n, t):
        for b in range(a, n, t):
            tile = rel[a:a + t, b:b + t]
            if not np.array_equal(tile if symmetric else np.take(inv, tile),
                                  rel[b:b + t, a:a + t].T):
                return False
    return True


def _first_pairs(xs, ys, count):
    """The first count pairs (xs[p], ys[p]) as int tuples."""
    return list(zip(xs[:count].tolist(), ys[:count].tolist()))


def verify_cas(scheme: Scheme, borel_family=None, tolerance: float = 0.0,
               diagonal_slack: int = 0, max_pairs_per_fiber=None,
               seed: int = 0) -> CasReport:
    """Measure the association-scheme axioms over a generating family.

    borel_family: None/"singletons" (default), "pairs", "bins" (the
    scheme's stored family), or an explicit list of label sets.
    max_pairs_per_fiber caps the per-fiber pair count with a seeded
    swap-closed sample. Time follows the pairs checked times n, since a
    fiber's reduction keeps state only for the cells its pairs touch;
    memory is one K**2 scratch per call, K the label count or, for F
    disjoint sets, F + 1. Under a _certificate of symmetry (named in
    witnesses["route"]) CAS2, CAS4 and the transpose identity reduce only
    the n pairs of row 0 and, for partners, column 0.

    In addition to CAS1..CAS5 the report carries the fiber-transpose
    identity deviation (p_{W,W'}^k vs p_{W'^T,W^T}^{k^T}) and the
    product-measure pushforward identity, including row-valency constancy.
    """
    _check_tolerance(tolerance)
    _check_count(diagonal_slack, "diagonal_slack", 0)
    _check_sample_size(max_pairs_per_fiber, "max_pairs_per_fiber")
    rel = scheme.relation
    w = scheme.space.weights
    n = scheme.space.node_count
    L = scheme.label_count
    inv = scheme.label_space.involution
    i0 = scheme.label_space.identity_label
    rng = np.random.default_rng(seed)
    certificate = _certificate(scheme, max_pairs_per_fiber)
    witnesses: dict = {"route": [certificate]} if certificate else {}

    # CAS1 (identity fiber vs diagonal): the identity pairs off the
    # diagonal are its fiber count less those on it; the fiber is scanned
    # only for the witnesses of a failure, the first in row-major order
    if i0 is None:
        cas1_ok = False
        witnesses["cas1"] = [{"detail": "no identity label declared"}]
    else:
        diag = rel.diagonal()
        bad_diag = np.nonzero(diag != i0)[0]
        off_count = int(scheme.fiber_counts[i0]) - (n - bad_diag.size)
        cas1_ok = bad_diag.size == 0 and off_count <= diagonal_slack
        if not cas1_ok:
            items = [{"pair": (int(x), int(x)), "label": int(diag[x])}
                     for x in bad_diag[:5]]
            if off_count:
                xs, ys = fiber(scheme, i0)
                off = xs != ys
                items += [{"pair": pair, "label": int(i0)}
                          for pair in _first_pairs(xs[off], ys[off], 5)]
            witnesses["cas1"] = items

    # CAS3 (relation transpose vs involution table) reads square tiles; a
    # scheme that fails them is scanned a block of rows at a time up to the
    # block of its fifth mismatch: witnesses are the first in row-major order
    mismatches = []
    symmetric = scheme.label_space.is_symmetric()
    # in the relation's dtype, so a block's temporaries are no wider than it
    inv_rel = inv.astype(rel.dtype)
    holds = _transpose_holds(rel, inv_rel, symmetric)
    for a, block in () if holds else _row_blocks(rel):
        bad = np.take(inv_rel, block) != rel[:, a:a + len(block)].T
        if bad.any():
            mismatches += _first_pairs(*_block_pairs(bad, a),
                                       5 - len(mismatches))
            if len(mismatches) == 5:
                break

    cas3_ok = not mismatches
    if not cas3_ok:
        witnesses["cas3"] = [
            {"pair": (a, b),
             "label": int(rel[a, b]), "transposed_label": int(rel[b, a])}
            for a, b in mismatches]

    family, descriptor = resolve_borel_family(scheme, borel_family)
    F = len(family)
    index, sigma = _family_route(family, L, inv)
    if index is None and sigma is None:
        # overlapping sets: dense F x F tables, cell (f1, f2) at f1 * F + f2
        K = F
        M = np.zeros((F, L))
        for f, W in enumerate(family):
            M[f, list(W)] = 1.0
        # W^T holds j exactly when W holds inv[j]
        MT = M[:, inv]
    else:
        # the pass's K x K scratch, for label or set cells; once CAS3
        # holds, R(y, z) = inv[R(z, y)], so column z is read as row z
        K = L if index is None else F + 1
        scratch = _CellScratch(K, n, inv if cas3_ok else None)
    tsigma = np.arange(K) if sigma is None else sigma

    # involution orbits of labels, each led by its smaller label
    orbits = [(k, int(inv[k])) for k in range(L) if k <= inv[k]]

    cas2_max = 0.0
    cas2_arg = None
    cas4_max = 0.0
    inv_id_max = 0.0
    labels_checked = 0

    def reduced(xs, zs, labels):
        # (cells, mean, lo, hi) at the touched cells, 0 in set F's cells
        cells, total, lo, hi, _ = _reduce_cells(rel, w, xs, zs, scratch,
                                                labels, labels)
        off = (cells // K >= F) | (cells % K >= F)
        total[off] = lo[off] = hi[off] = 0.0
        return cells, total / xs.size, lo, hi

    def stats(xs, zs):
        # (cells, mean, lo, hi, tcells, tmean): the cells to check, the
        # fiber mean, min and max there, and its mean over the sets W^T
        if index is None and sigma is None:
            total, lo, hi = _projected_pair_stats(rel, w, L, xs, zs, M)
            mean = total / xs.size
            cells = np.arange(F * F)
            return (cells, (M @ mean @ M.T).ravel(), lo.ravel(), hi.ravel(),
                    cells, (MT @ mean @ MT.T).ravel())
        cells, mean, lo, hi = reduced(xs, zs, index)
        # over W^T: the tables over W (relabelled by sigma), or mapped anew
        return cells, mean, lo, hi, *((cells, mean) if sigma is not None
                                      else reduced(xs, zs, index[inv])[:2])

    def pairs(k):
        # a fiber, its sample, or under the certificate its base-row pairs
        if certificate.get("route") == "symmetry":
            zs = np.flatnonzero(rel[0] == k)
            return np.zeros_like(zs), zs
        return _sample_fiber(scheme, k, max_pairs_per_fiber, rng)[:2]

    for k, kt in orbits:
        xs, zs = pairs(k)
        per_orbit = [(k, *stats(xs, zs))]
        if kt != k:
            if cas3_ok:
                # fiber(k^T) sampled as the transpose of fiber(k)'s sample
                # keeps the transpose identity exact under sampling
                xs, zs = zs, xs
            else:
                # invalid schemes: the transposed sample may leave the
                # fiber, fall back to an independent sample
                xs, zs = pairs(kt)
            per_orbit.append((kt, *stats(xs, zs)))
        # a cell outside cells has mean, min and max 0, so no maximum
        # below changes, and the first maximum in row-major order is
        # among cells
        for lab, cells, mean, lo, hi, *_ in per_orbit:
            labels_checked += 1
            dev = hi - lo
            at = int(np.argmax(dev))
            if dev[at] > cas2_max:
                cas2_max = float(dev[at])
                f1, f2 = divmod(int(cells[at]), K)
                cas2_arg = (lab, family[f1], family[f2],
                            float(lo[at]), float(hi[at]))
            # CAS4: each cell against its mirror across the diagonal
            mirror = _values_at(cells, mean, cells % K * K + cells // K)
            cas4_max = max(cas4_max, float(np.abs(mean - mirror).max()))
        # transpose identity: p_{W1,W2}^k vs p_{W2^T,W1^T}^{k^T}, cell (a, b)
        # over W against (b, a) over W^T; a family not closed under ^T
        # (no sigma) is checked from k and from k^T
        ends = per_orbit[0], per_orbit[-1]
        for (_, cells, mean, *_), (*_, tcells, tmean) in \
                (ends, ends[::-1])[:2 - (sigma is not None)]:
            # cell (a, b) of a table over W^T at (tsigma[b], tsigma[a])
            keys = tsigma[tcells % K] * K + tsigma[tcells // K]
            order = np.argsort(keys)
            dev = np.concatenate([
                mean - _values_at(keys[order], tmean[order], cells),
                _values_at(cells, mean, keys) - tmean])
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
    # a block of rows at a time, so no further (n, L) array is held
    pushforward_max = max(
        float(np.abs(block * scheme.space.total_mass - fibermass).max())
        for _, block in _row_blocks(rowmass))
    if row_valency_max > tolerance:
        i = int(np.argmax(rowmass.max(axis=0) - rowmass.min(axis=0)))
        witnesses["row_valency"] = [{
            "label": i,
            "min_row_mass": float(rowmass[:, i].min()),
            "max_row_mass": float(rowmass[:, i].max())}]

    commutative = cas4_max <= tolerance
    # sampled when a fiber exceeds the cap: when CAS3 holds, a partner
    # reuses its leader's sample and has the leader's fiber count; when
    # it fails, every label draws a sample of its own
    sampled = bool(max_pairs_per_fiber is not None
                   and (scheme.fiber_counts > max_pairs_per_fiber).any())
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


def _label_bytes(L, end):
    """(L, W) uint8 table: label i's decimal digits, then end, then zero
    padding to the width of the widest label."""
    text = np.array([b"%d%s" % (i, end) for i in range(L)])
    return text.view(np.uint8).reshape(L, text.itemsize)


def write_scheme(scheme: Scheme, path, recipe: Optional[str] = None) -> str:
    """Write the `#casmat-scheme v1` text format (bit-exact round trip)
    and return the "sha256:..." digest of the bytes written.

    Relation rows are gathered from a per-label byte table a block of
    rows at a time, so entries are never formatted one by one.
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
    spaced, ended = _label_bytes(ls.size, b" "), _label_bytes(ls.size, b"\n")
    head = ("\n".join(lines) + "\n").encode()
    sha = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for _, block in _row_blocks(scheme.relation):
            text = np.take(spaced, block, axis=0)
            text[:, -1] = ended[block[:, -1]]
            # the padding is the only zero byte
            text = text[text != 0]
            sha.update(text)
            fh.write(text)
    return "sha256:" + sha.hexdigest()


def _load_relation_rows(data, n, L):
    """The relation rows in data, the bytes of whole lines, as a (lines,
    n) array of label_dtype(L), parsed in one pass; or None, for the row
    loop, when a line is not n entries of ASCII digits between spaces and
    tabs (it may end in \\r\\n) or has an entry with more digits than L - 1
    or not below L. The parse's scratch takes a few bytes a byte of data.
    """
    if data[-1:] != b"\n":
        data += b"\n"
    if data.translate(None, b"0123456789 \t\r\n") or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    data = np.frombuffer(data, dtype=np.uint8)
    digit = data - np.uint8(48)
    is_digit = digit <= 9
    # each entry's last digit: a digit before a separator
    ends = np.flatnonzero(is_digit[:-1] > is_digit[1:])
    newlines = np.flatnonzero(data == 10)
    if not np.array_equal(np.searchsorted(ends, newlines),
                          np.arange(n, n * newlines.size + 1, n)):
        return None
    # at each byte, the value of the digits that end there, by place
    # value while they last; int16 holds every entry of up to 4 digits
    width = len(str(L - 1))
    digit *= is_digit
    value = digit.astype(np.int16 if width <= 4 else np.int64)
    reach = is_digit.copy()
    for place in range(1, width + 1):
        # the bytes from `place` back up to here are all digits
        reach[place:] &= is_digit[:-place]
        reach[:place] = False
        if place < width:
            value[place:] += np.multiply(digit[:-place] * reach[place:],
                                         10 ** place, dtype=value.dtype)
    # width + 1 digits in a row: an entry with more digits than L - 1
    if reach.any():
        return None
    values = value[ends]
    if values.max() >= L:
        return None
    return values.astype(label_dtype(L)).reshape(newlines.size, n)


def read_scheme(path) -> Scheme:
    """Parse a `#casmat-scheme v1` file; errors carry the line number.

    The file is read once, as bytes, and its sha256 left on the Scheme
    as digest: header lines one at a time, the relation into label_dtype
    (and counted) in blocks of whole lines near _READ_BLOCK_BYTES, each
    parsed in one call; a block that parse refuses is read again row by
    row, from its lines, to name the faulty line.
    """
    with _LineReader(path) as reader:
        return _read_scheme(reader)


def _read_scheme(reader) -> Scheme:
    def fail(msg, lineno):
        raise ParseError(msg, line=lineno)

    lineno, text = reader.next_content()
    if lineno != 1 or text != SCHEME_HEADER:
        fail(f"expected header {SCHEME_HEADER!r}", 1)
    lineno, text = reader.next_content()
    recipe = None
    if text is not None and text.startswith("recipe"):
        recipe = text[len("recipe"):].strip()
        lineno, text = reader.next_content()
    if text is None or not text.startswith("nodes "):
        fail("expected 'nodes <count>'", lineno)
    try:
        n = int(text.split()[1])
    except (IndexError, ValueError):
        fail("malformed node count", lineno)
    if n < 1:
        fail(f"node count must be at least 1, got {n}", lineno)
    lineno, text = reader.next_content()
    if text != "weights":
        fail("expected 'weights' section", lineno)
    weights = []
    while len(weights) < n:
        lineno, text = reader.next_content()
        if text is None:
            fail(f"expected {n} weights, got {len(weights)}", lineno)
        tokens = text.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            fail(f"malformed weight in {text!r}", lineno)
        for token, w in zip(tokens, values):
            if not 0.0 < w < np.inf:
                fail(f"weight must be finite and strictly positive, got "
                     f"{token!r}", lineno)
        weights.extend(values)
    if len(weights) != n:
        fail(f"expected exactly {n} weights, got {len(weights)}", lineno)

    lineno, text = reader.next_content()
    if text is None or not text.startswith("labels "):
        fail("expected 'labels <count>'", lineno)
    try:
        L = int(text.split()[1])
    except (IndexError, ValueError):
        fail("malformed label count", lineno)
    if L < 1:
        fail(f"label count must be at least 1, got {L}", lineno)
    involution = np.zeros(L, dtype=np.int64)
    record_line = np.zeros(L, dtype=np.int64)
    bin_meta: list = [None] * L
    any_bins = False
    seen = set()
    # the intervals read so far, pairwise disjoint and sorted
    taken = []
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
        if not 0 <= linv < L:
            fail("involution entries must be valid label ids", lineno)
        involution[lid], record_line[lid] = linv, lineno
        if len(parts) == 4:
            try:
                a, b = float(parts[2]), float(parts[3])
            except ValueError:
                fail("malformed bin interval", lineno)
            if not a < b:
                fail(f"bin interval [{a}, {b}) is empty", lineno)
            # only the neighbours of its place can overlap it
            k = bisect.bisect(taken, (a, b))
            if (k and taken[k - 1][1] > a
                    or k < len(taken) and b > taken[k][0]):
                fail("bin intervals must be pairwise disjoint", lineno)
            taken.insert(k, (a, b))
            bin_meta[lid] = (a, b)
            any_bins = True
    unpaired = np.flatnonzero(involution[involution] != np.arange(L))
    if unpaired.size:
        fail("involution table must be an involutive bijection",
             int(record_line[unpaired].min()))

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
        if not 0 <= identity < L:
            fail(f"identity label {identity} out of range", lineno)
        if involution[identity] != identity:
            fail("involution must fix the identity label", lineno)

    lineno, text = reader.next_content()
    borel_bins = None
    if text is not None and text.startswith("binfamily"):
        try:
            n_sets = int(text.split()[1])
        except (IndexError, ValueError):
            fail("malformed binfamily count", lineno)
        if n_sets < 0:
            fail(f"binfamily count must not be negative, got {n_sets}",
                 lineno)
        borel_bins = []
        for _ in range(n_sets):
            lineno, text = reader.next_content()
            if text is None:
                fail("binfamily ended early", lineno)
            try:
                borel_bins.append(tuple(int(t) for t in text.split()))
            except ValueError:
                fail("malformed binfamily record", lineno)
            for i in borel_bins[-1]:
                if not 0 <= i < L:
                    fail(f"borel bin label {i} out of range", lineno)
        lineno, text = reader.next_content()
    if text != "relation":
        fail("expected 'relation' section", lineno)
    rel = np.empty((n, n), dtype=label_dtype(L))
    counts = np.zeros(L, dtype=np.int64)
    r = 0
    while r < n:
        start = r
        data = b"" if reader.pending else reader.block()
        rows = _load_relation_rows(data, n, L)
        if rows is not None:
            # lines past row n - 1 are no rows, and nothing reads on
            reader.skip(len(data), len(rows))
            rel[r:r + len(rows)] = rows[:n - r]
            r = min(n, r + len(rows))
        # row by row through the block, at least one row: the oracle for
        # relation-fault messages and lines
        end = reader.tell() + len(data)
        while rows is None and (r == start or r < n and (
                reader.pending or reader.tell() < end)):
            lineno, text = reader.next_content()
            if text is None:
                fail(f"relation matrix ended early at row {r}", lineno)
            parts = text.split()
            if len(parts) != n:
                fail(f"relation row {r} has {len(parts)} entries, "
                     f"expected {n}", lineno)
            try:
                row = [int(t) for t in parts]
            except ValueError:
                fail(f"malformed relation entry in row {r}", lineno)
            if min(row) < 0 or max(row) >= L:
                fail("relation entries must lie in 0..label_count-1",
                     lineno)
            rel[r] = row
            r += 1
        # both paths have checked the range
        counts += np.bincount(rel[start:r].ravel(), minlength=L)

    try:
        space = make_quadrature(weights)
        label_space = LabelSpace(involution=involution, identity_label=identity,
                                 bin_meta=tuple(bin_meta) if any_bins else None)
        scheme = Scheme._adopt(space, label_space, rel, borel_bins=borel_bins,
                               counts=counts)
        scheme.recipe, scheme.digest = recipe, reader.digest()
        return scheme
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
