"""Both directions of the scheme / algebra correspondence.

A scheme yields the algebra spanned by its fiber indicators; an algebra
yields a scheme whose labels are the joint level sets of the basis (the
point evaluations exhaust the Hadamard characters of a finite-dimensional
span, so no other characters can occur at desk scale). roundtrip_check
confirms that composing the two directions reproduces the original pair
partition up to relabeling.

The indicator algebra of a scheme is held in cell form, as the scheme's
relation, so no dense kernel is built on the way there and back: the
joint level sets of a cell basis are its cells. A basis given as dense
kernels is grouped exactly, by one sort of each pair's values as a byte
row. No command builds such a basis; it serves the library and the tests
of the cell path, so a sort that is exact by construction beats a faster
hash that needs a check. Both forms then share one tail: cells, involutions and label
bijections are all numbered by first row-major occurrence, found by one
scatter-min over the pairs, so the order of the sort never shows.
"""

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bma import AlgebraBasis, IndicatorKernels
from .errors import CasmatError
from .scheme import LabelSpace, Scheme, _check_tolerance


class DiagonalContaminationError(ValueError):
    """The diagonal's level set is not exactly the diagonal."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InvolutionUndefinedError(ValueError):
    """Transposition splits a grouped cell, so no involution is induced."""


class GroupingBudgetError(CasmatError):
    """A grouping tolerance over more exact groups than the merge allows."""


def algebra_of_scheme(scheme: Scheme) -> AlgebraBasis:
    """The adjacency-indicator basis: one 0/1 kernel per label, in cell
    form over the scheme's relation (kernels are built only on request)."""
    return AlgebraBasis(
        basis=IndicatorKernels(scheme.relation, scheme.space,
                               scheme.label_count),
        contains_J=True, closure_tolerance=0.0)


@dataclass(frozen=True)
class CharacterPartition:
    """Joint level sets of a basis over node pairs.

    cell_matrix[x, y] is the cell id of the evaluation character of
    (x, y); representative_values[c] holds the basis values on the first
    member of cell c. Cell ids are ordered by the cell's lexicographically
    smallest member pair, so the labeling is deterministic.
    """

    cell_matrix: np.ndarray
    representative_values: np.ndarray

    @property
    def cell_count(self) -> int:
        return int(self.representative_values.shape[0])


# above this many exact groups a positive grouping tolerance is refused:
# the merge compares every pair of groups
_TOLERANCE_GROUP_CAP = 4096


def _first_occurrence(labels: np.ndarray, count: int) -> np.ndarray:
    """Index of the first occurrence of each of count labels in a flat
    label array (labels.size for a label that does not occur): one
    scatter-min over the array, O(labels.size), no sort."""
    first = np.full(count, labels.size, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(labels.size))
    return first


def _value_cells(basis):
    """Exact value groups of a dense basis: (group of each pair as an
    n x n matrix, group count).

    Each pair's basis values are one byte row, so one sort groups the pairs
    exactly; adding 0.0 first turns -0.0 into 0.0, so equal values share
    their bytes.
    """
    vals = np.stack([K.entries.ravel() for K in basis], axis=1) + 0.0
    rows = vals.view(np.dtype((np.void, vals.shape[1] * vals.itemsize)))
    groups, group_of = np.unique(rows.ravel(), return_inverse=True)
    return group_of.reshape(basis[0].entries.shape), groups.size


def _tolerance_components(reps: np.ndarray, tol: float) -> np.ndarray:
    """Connected components of the groups whose values agree within tol."""
    comp = np.arange(reps.shape[0])
    for a in range(comp.size - 1):
        near = np.abs(reps[a + 1:] - reps[a]).max(axis=1) <= tol
        if near.any():
            ids = comp[np.append(np.nonzero(near)[0] + a + 1, a)]
            comp[np.isin(comp, ids)] = ids.min()
    return np.unique(comp, return_inverse=True)[1]


def _number_cells(firsts, values, grouping_tolerance, n, gap=0.0):
    """Merge exact groups within the tolerance and number the cells.

    firsts[g] is the first member (row-major pair index) of exact group g,
    values(positions) the basis values at pair indices, and no two groups'
    values are closer than gap, so a tolerance below gap merges none.
    Returns the cell id of every group and the first member of every cell,
    cells ordered by first member.
    """
    G = firsts.size
    comp = np.arange(G)
    if grouping_tolerance > 0 and G > 1:
        if G > _TOLERANCE_GROUP_CAP:
            raise GroupingBudgetError(
                f"grouping tolerance {grouping_tolerance!r} would compare "
                f"{G} exact groups pairwise (cap {_TOLERANCE_GROUP_CAP}); "
                f"use tolerance 0")
        if grouping_tolerance >= gap:
            comp = _tolerance_components(values(firsts), grouping_tolerance)

    cell_first = np.full(comp.max() + 1, n * n, dtype=np.int64)
    np.minimum.at(cell_first, comp, firsts)
    order = np.argsort(cell_first)
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return rank[comp], cell_first[order]


def character_partition(alg: AlgebraBasis,
                        grouping_tolerance: float = 0.0) -> CharacterPartition:
    """Group node pairs into joint level sets of the basis.

    Grouping is by value for tolerance 0 (-0.0 equals 0.0). A cell-form
    basis takes its cells as the exact groups: each pair's values are the
    identity row of its cell. A basis of dense kernels takes the exact
    value groups of _value_cells. Both are then numbered alike: with a
    positive tolerance, exact groups whose representative values all
    agree within the tolerance are merged (connected components over group
    representatives; identity rows are 1.0 apart, so a cell-form basis
    compares none below tolerance 1); more than _TOLERANCE_GROUP_CAP exact
    groups raise GroupingBudgetError.
    """
    _check_tolerance(grouping_tolerance)
    n = alg.space.node_count
    if alg.cell_form:
        cells, G, gap = alg.cells, alg.size, 1.0

        def values(pos):
            rows = np.zeros((pos.size, G), dtype=complex)
            rows[np.arange(pos.size), cells.ravel()[pos]] = 1.0
            return rows
    else:
        basis = alg.basis
        (cells, G), gap = _value_cells(basis), 0.0

        def values(pos):
            return np.stack([K.entries.ravel()[pos] for K in basis], axis=1)

    flat = cells.ravel()
    first = _first_occurrence(flat, G)
    present = np.flatnonzero(first < flat.size)
    cell_of, cell_firsts = _number_cells(first[present], values,
                                         grouping_tolerance, n, gap)
    lut = np.zeros(G, dtype=np.int32)
    lut[present] = cell_of
    return CharacterPartition(cell_matrix=lut[cells],
                              representative_values=values(cell_firsts))


def scheme_of_algebra(alg: AlgebraBasis,
                      grouping_tolerance: float = 0.0) -> Scheme:
    """Recover a scheme from a basis via its joint level sets.

    Fails when the diagonal's cell is contaminated by an off-diagonal
    pair (the basis cannot separate the diagonal, so no identity label
    exists) or when the grouping merges cells that transposition would
    split (the induced involution would be ill-defined); refusal is safer
    than silently refining.
    """
    part = character_partition(alg, grouping_tolerance)
    cm = part.cell_matrix
    n = cm.shape[0]
    diag = cm.diagonal()
    i0 = int(diag[0])
    if (diag != i0).any():
        x = int(np.argmax(diag != i0))
        raise DiagonalContaminationError(
            f"diagonal pairs (0,0) and ({x},{x}) fall in different cells; "
            f"characters do not identify the diagonal", pair=(x, x))
    mask = cm == i0
    mask[np.arange(n), np.arange(n)] = False
    off = np.nonzero(mask)
    if off[0].size:
        pair = (int(off[0][0]), int(off[1][0]))
        raise DiagonalContaminationError(
            f"off-diagonal pair {pair} shares the diagonal's cell; "
            f"characters do not separate the diagonal", pair=pair)

    flat = cm.ravel()
    flat_t = cm.T.ravel()
    inv = flat_t[_first_occurrence(flat, part.cell_count)]
    bad = np.nonzero(inv[flat] != flat_t)[0]
    if bad.size:
        pos = int(bad[0])
        x, y = divmod(pos, n)
        raise InvolutionUndefinedError(
            f"cell of ({x},{y}) maps to several cells under transposition; "
            f"grouping tolerance {grouping_tolerance!r} merges cells that "
            f"transpose would split")
    label_space = LabelSpace(involution=inv, identity_label=i0)
    return Scheme(alg.space, label_space, cm)


@dataclass
class RoundtripReport:
    """Comparison of a scheme against its algebra-recovered twin."""

    partition_match: bool
    involution_consistent: bool
    identity_consistent: bool
    label_bijection: dict
    original_labels: int
    recovered_labels: int
    witness: Optional[dict] = None

    def matched(self) -> bool:
        return (self.partition_match and self.involution_consistent
                and self.identity_consistent)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["label_bijection"] = {str(k): v for k, v in
                                  self.label_bijection.items()}
        return out


def roundtrip_check(scheme: Scheme,
                    grouping_tolerance: float = 0.0) -> RoundtripReport:
    """Recover the scheme from its own indicator algebra and compare.

    The recovered partition must equal the original one up to a label
    bijection; the bijection must also carry the involution and the
    identity label across. Mismatches are report content, not errors.
    """
    recovered = scheme_of_algebra(algebra_of_scheme(scheme),
                                  grouping_tolerance)
    L = scheme.label_count
    rel, rec = scheme.relation, recovered.relation
    flat, flat_rec = rel.ravel(), rec.ravel()
    # a scheme's relation is surjective, so every label occurs
    mapping = flat_rec[_first_occurrence(flat, L)]
    partition_match = (recovered.label_count == L
                       and np.array_equal(mapping[flat], flat_rec)
                       and np.bincount(mapping, minlength=L).max() == 1)
    witness = None
    if not partition_match:
        bad = np.nonzero(mapping[flat] != flat_rec)[0]
        if bad.size:
            pos = int(bad[0])
            x, y = divmod(pos, scheme.space.node_count)
            witness = {"pair": (x, y), "original_label": int(rel[x, y]),
                       "recovered_label": int(rec[x, y])}
        else:
            witness = {"detail": "label counts differ",
                       "original": L, "recovered": recovered.label_count}

    inv_o = scheme.label_space.involution
    inv_r = recovered.label_space.involution
    involution_consistent = bool(partition_match and np.array_equal(
        mapping[inv_o], inv_r[mapping]))
    identity_consistent = bool(
        partition_match
        and scheme.label_space.identity_label is not None
        and mapping[scheme.label_space.identity_label]
        == recovered.label_space.identity_label)
    return RoundtripReport(
        partition_match=bool(partition_match),
        involution_consistent=involution_consistent,
        identity_consistent=identity_consistent,
        label_bijection={int(i): int(mapping[i]) for i in range(L)},
        original_labels=L, recovered_labels=recovered.label_count,
        witness=witness)
