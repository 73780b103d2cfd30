"""Weighted quadrature node sets standing in for a measured compact space.

A compact space X with a strictly positive finite measure is represented
by a finite set of nodes carrying strictly positive weights. Every
integral used downstream (kernel composition, product-measure pushforward,
normalizations) then becomes a finite weighted sum over the nodes, so all
verification residuals are attributable to the mesh, not to the
integration rule.

Coordinates are an opaque payload: this module imposes no geometry.
"""

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ParseError, _LineReader

QUADRATURE_HEADER = "#casmat-quadrature v1"


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite node set with positive weights and cached total mass.

    Instances compare by object identity on purpose: kernels and schemes
    reference the space they live over, and mixing two quadratures of the
    same underlying space must be detected, not silently accepted.

    Attributes
    ----------
    weights : read-only float array, shape (node_count,), all > 0
    total_mass : float, cached sum of weights (never recomputed)
    coordinates : optional opaque payload used by catalog builders
    """

    weights: np.ndarray
    total_mass: float
    coordinates: Any = None

    @property
    def node_count(self) -> int:
        return int(self.weights.shape[0])

    def __repr__(self):
        return (f"MeasureSpace(node_count={self.node_count}, "
                f"total_mass={self.total_mass!r})")


def make_quadrature(weights, coordinates=None) -> MeasureSpace:
    """Build a MeasureSpace from strictly positive, finite weights.

    Rejects empty input and names the first offending index when a
    weight is non-positive or non-finite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weights must be a 1-d vector, got shape {w.shape}")
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    bad = ~np.isfinite(w) | (w <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"weight at index {i} must be finite and strictly positive, "
            f"got {float(w[i])!r}")
    w = w.copy()
    w.setflags(write=False)
    return MeasureSpace(weights=w, total_mass=float(w.sum()),
                        coordinates=coordinates)


def integrate(f, space: MeasureSpace):
    """Integrate a node-indexed vector: sum_y weights[y] * f[y]."""
    arr = np.asarray(f)
    if arr.shape != (space.node_count,):
        raise ValueError(
            f"integrand has shape {arr.shape}, expected ({space.node_count},)")
    return np.dot(space.weights, arr)


def product_integrate(F, space: MeasureSpace):
    """Integrate a pair-indexed matrix against the product measure.

    Returns sum_{x,y} weights[x] * weights[y] * F[x, y].
    """
    arr = np.asarray(F)
    n = space.node_count
    if arr.shape != (n, n):
        raise ValueError(
            f"integrand has shape {arr.shape}, expected ({n}, {n})")
    return np.dot(space.weights, arr @ space.weights)


def write_quadrature(space: MeasureSpace, path) -> None:
    """Write the node set in the `#casmat-quadrature v1` text format.

    One record per node: weight, then optional coordinate fields,
    whitespace separated. Floats are written with repr so they round-trip
    bit-exactly.
    """
    coords = space.coordinates
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape[0] != space.node_count:
            raise ValueError("coordinates length does not match node count")
    with open(path, "w") as fh:
        fh.write(QUADRATURE_HEADER + "\n")
        for i, w in enumerate(space.weights):
            fields = [repr(float(w))]
            if coords is not None:
                fields.extend(repr(float(c)) for c in coords[i])
            fh.write(" ".join(fields) + "\n")


def read_quadrature(path) -> MeasureSpace:
    """Read a `#casmat-quadrature v1` file back into a MeasureSpace."""
    weights = []
    coords = []
    width: Optional[int] = None
    with _LineReader(path) as reader:
        lineno, text = reader.next_content()
        if lineno != 1 or text != QUADRATURE_HEADER:
            raise ParseError(f"expected header {QUADRATURE_HEADER!r}",
                             line=1)
        while True:
            lineno, text = reader.next_content()
            if text is None:
                break
            if text.startswith("#"):
                continue
            fields = text.split()
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"expected {width} fields per record, got {len(fields)}",
                    line=lineno)
            try:
                values = [float(t) for t in fields]
            except ValueError:
                raise ParseError(f"malformed float in {text!r}", line=lineno)
            if not 0.0 < values[0] < np.inf:
                raise ParseError(
                    f"weight must be finite and strictly positive, got "
                    f"{fields[0]!r}", line=lineno)
            weights.append(values[0])
            if width > 1:
                coords.append(values[1:])
    if not weights:
        raise ParseError("no node records found")
    coordinates = np.asarray(coords) if coords else None
    if coordinates is not None and coordinates.shape[1] == 1:
        coordinates = coordinates[:, 0]
    return make_quadrature(weights, coordinates=coordinates)
