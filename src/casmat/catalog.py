"""Builders for concrete scheme families.

Finite examples (cyclic groups, Hamming cubes, permutation-group
orbitals), quadrature discretizations of the circle and the 2-sphere, and
squared-distance (Delsarte-style) schemes over an arbitrary metric table.
Constructors establish the structural invariants themselves; verify_cas
is a check on them, not a crutch.
"""

import shlex
from itertools import product

import numpy as np

from .measure import MeasureSpace, make_quadrature, read_quadrature
from .scheme import LabelSpace, Scheme, _row_blocks, label_dtype

HAMMING_NODE_CAP = 4096
GROUP_DEGREE_CAP = 1024
DEFAULT_SPHERE_SEED = 1729


def _counting_space(n: int, coordinates=None) -> MeasureSpace:
    return make_quadrature(np.ones(n), coordinates=coordinates)


def _difference_table(n: int, fold: bool = False) -> np.ndarray:
    """(y - x) mod n at (x, y), folded to min(d, n - d) when fold, in the
    label dtype; built a block of rows at a time."""
    rel = np.empty((n, n), dtype=label_dtype(n // 2 + 1 if fold else n))
    idx = np.arange(n)
    for start, block in _row_blocks(rel):
        d = (idx - idx[start:start + len(block), None]) % n
        block[...] = np.minimum(d, n - d) if fold else d
    return rel


def cyclic_scheme(n: int) -> Scheme:
    """Translation scheme of Z_n under counting measure."""
    if n < 2:
        raise ValueError("cyclic scheme needs n >= 2")
    idx = np.arange(n)
    label_space = LabelSpace(involution=(n - idx) % n, identity_label=0)
    return Scheme._adopt(_counting_space(n), label_space,
                         _difference_table(n))


def hamming_scheme(d: int, q: int) -> Scheme:
    """Hamming scheme H(d, q): words of length d over q symbols, labels
    are Hamming distances."""
    if d < 1 or q < 2:
        raise ValueError("hamming scheme needs d >= 1 and q >= 2")
    n = q ** d
    if n > HAMMING_NODE_CAP:
        raise ValueError(
            f"q^d = {n} exceeds the {HAMMING_NODE_CAP}-node cap")
    words = np.array(list(product(range(q), repeat=d)), dtype=np.int16)
    rel = np.empty((n, n), dtype=label_dtype(d + 1))
    for start, block in _row_blocks(rel, (1 << 22) // d):
        block[...] = (words[start:start + len(block), None, :]
                      != words[None, :, :]).sum(axis=2)
    label_space = LabelSpace(involution=np.arange(d + 1), identity_label=0)
    return Scheme._adopt(_counting_space(n, coordinates=words), label_space,
                         rel)


def _check_permutations(generators):
    gens = [np.asarray(g, dtype=np.int64) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    m = gens[0].size
    for g in gens:
        if g.shape != (m,) or not np.array_equal(np.sort(g), np.arange(m)):
            raise ValueError(f"generator {g.tolist()} is not a permutation "
                             f"of 0..{m - 1}")
    return gens, m


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


def group_action_scheme(generators) -> Scheme:
    """Orbital scheme of the group generated by the given permutations.

    Labels are the orbits of the diagonal action on ordered pairs, the
    measure is counting measure. The action must be transitive. Orbitals
    are numbered by their first pair in row-major order.
    """
    gens, m = _check_permutations(generators)
    if m > GROUP_DEGREE_CAP:
        raise ValueError(f"degree {m} exceeds the {GROUP_DEGREE_CAP} cap")
    missed = np.nonzero(_orbit_minima(gens, m))[0]
    if missed.size:
        raise ValueError("the generated group does not act transitively; "
                         f"orbit of 0 misses {missed.tolist()}")
    # pair (a, b) is index a*m + b; g maps it to g[a]*m + g[b]
    pair_images = [(g[:, None] * m + g).ravel() for g in gens]
    firsts, labels = np.unique(_orbit_minima(pair_images, m * m),
                               return_inverse=True)
    labels = labels.reshape(m, m).astype(label_dtype(firsts.size))
    inv = labels.T.ravel()[firsts]
    # (0, 0) is the first pair, so the diagonal orbit is label 0
    assert (labels.diagonal() == 0).all()
    label_space = LabelSpace(involution=inv, identity_label=0)
    return Scheme._adopt(_counting_space(m), label_space, labels)


def symmetric_group(m: int):
    """Generators of S_m in its natural action."""
    if m < 2:
        raise ValueError("need m >= 2")
    swap = np.arange(m)
    swap[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(m), -1)
    return [swap, cycle]


def cyclic_group(m: int):
    """Generator of the cyclic shift on m points."""
    if m < 2:
        raise ValueError("need m >= 2")
    return [np.roll(np.arange(m), -1)]


def dihedral_group(m: int):
    """Generators of the dihedral action on m points (shift + reflection)."""
    if m < 3:
        raise ValueError("need m >= 3")
    return [np.roll(np.arange(m), -1), (-np.arange(m)) % m]


def circle_scheme(n_nodes: int, n_bins: int, signed: bool = True) -> Scheme:
    """Uniform circle quadrature with exact angular-difference labels.

    Nodes are n_nodes uniform angles with weights 2*pi/n_nodes. Labels are
    the exact grid differences (signed: (y-x) mod n with involution
    d -> -d; unsigned: folded distance min(d, n-d) with identity
    involution), which makes every fiber a rotation orbit and all
    intersection numbers exactly constant. The n_bins parameter stores a
    coarse generating family of label sets (equal arcs) on the scheme for
    CAS2 checks over genuinely coarse Borel sets; n_bins must divide
    n_nodes so the arcs contain equally many grid differences.
    """
    if n_nodes < 2:
        raise ValueError("circle scheme needs n_nodes >= 2")
    if n_bins < 2:
        raise ValueError("circle scheme needs n_bins >= 2")
    if n_nodes % n_bins != 0:
        raise ValueError(
            f"n_bins must divide n_nodes, got {n_bins} and {n_nodes}")
    n = n_nodes
    step = 2 * np.pi / n
    angles = step * np.arange(n)
    space = make_quadrature(np.full(n, step), coordinates=angles)
    idx = np.arange(n)
    rel = _difference_table(n, fold=not signed)
    if signed:
        inv = (n - idx) % n
        # signed integer representative keeps adjacent interval
        # boundaries bitwise identical
        reps = np.where(idx <= n // 2, idx, idx - n)
        arc = (idx * n_bins) // n
    else:
        inv = reps = np.arange(n // 2 + 1)
        arc = np.minimum((reps * 2 * n_bins) // n, n_bins - 1)
    bin_meta = tuple((float(step * (k - 0.5)), float(step * (k + 0.5)))
                     for k in reps)
    bins = [tuple(np.nonzero(arc == b)[0].tolist()) for b in range(n_bins)]
    bins = [W for W in bins if W]
    label_space = LabelSpace(involution=inv, identity_label=0,
                             bin_meta=bin_meta)
    return Scheme._adopt(space, label_space, rel, borel_bins=bins)


def _sphere_nodes(node_source, seed):
    if isinstance(node_source, (str, bytes)) or hasattr(node_source, "__fspath__"):
        space = read_quadrature(node_source)
        coords = np.asarray(space.coordinates, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("sphere quadrature file must carry 3 coordinates "
                             "per node")
        return coords, np.asarray(space.weights, dtype=float)
    if isinstance(node_source, (int, np.integer)):
        if node_source < 2:
            raise ValueError("need at least 2 sphere nodes")
        rng = np.random.default_rng(seed)
        node_source = rng.normal(size=(int(node_source), 3))
        node_source /= np.linalg.norm(node_source, axis=1, keepdims=True)
    coords = np.asarray(node_source, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 3 or not len(coords):
        raise ValueError("sphere nodes must be a non-empty (n, 3) array")
    return coords, np.full(len(coords), 4 * np.pi / len(coords))


def _binned_relation(values, edges):
    """(relation, label space) of a square table binned by edges: occupied
    off-diagonal bins become labels 1.. in bin order, the diagonal 0.

    A value's bin is np.clip(np.digitize(value, edges) - 1, 0, n_bins - 1):
    half-open bins, the last one closed. It is read off the equal-width
    scale and moved once against the exact edges, a block of rows at a
    time; np.digitize bins what is still out of bracket after that, and
    a whole block when the scale or a value in it is not finite. The bin
    indices are kept in one array narrow enough for the labels too and
    renumbered in place, a block at a time.
    """
    n_bins = edges.size - 1

    def digitized(v):
        return np.clip(np.digitize(v, edges) - 1, 0, n_bins - 1)

    lo, hi = float(edges[0]), float(edges[-1])
    scale = n_bins / (hi - lo) if hi > lo else 0.0
    # bracket bounds, the first bin open below and the last above
    lower = np.concatenate([[-np.inf], edges[1:-1]])
    upper = np.concatenate([edges[1:-1], [np.inf]])
    rel = np.empty(values.shape, dtype=label_dtype(n_bins + 1))
    counts = np.zeros(n_bins, dtype=np.int64)
    for start, v in _row_blocks(values):
        if not (0.0 < scale < np.inf and np.isfinite(v).all()):
            b = digitized(v)
        else:
            pos = np.clip(v, lo, hi)
            pos -= lo
            pos *= scale
            np.minimum(pos, n_bins - 1, out=pos)
            b = pos.astype(np.intp)
            down = v < lower[b]
            b -= down
            up = v >= upper[b]
            b += up
            # an entry that did not move is inside its bracket
            i, j = np.nonzero(down | up)
            vm, bm = v[i, j], b[i, j]
            astray = (vm < lower[bm]) | (vm >= upper[bm])
            if astray.any():
                b[i[astray], j[astray]] = digitized(vm[astray])
        rel[start:start + len(v)] = b
        counts += np.bincount(b.ravel(), minlength=n_bins)
    counts -= np.bincount(rel.diagonal(), minlength=n_bins)
    occupied = np.nonzero(counts)[0]
    # a bin with no off-diagonal entry holds diagonal entries only, and
    # those become label 0 below
    remap = np.zeros(n_bins, dtype=rel.dtype)
    remap[occupied] = 1 + np.arange(occupied.size)
    for _, block in _row_blocks(rel):
        block[...] = remap[block]
    np.fill_diagonal(rel, 0)
    bin_meta = tuple([None] + [(float(edges[b]), float(edges[b + 1]))
                               for b in occupied])
    return (rel.astype(label_dtype(occupied.size + 1), copy=False),
            LabelSpace(involution=np.arange(len(bin_meta)), identity_label=0,
                       bin_meta=bin_meta))


def sphere_scheme(node_source, n_bins: int,
                  seed: int = DEFAULT_SPHERE_SEED) -> Scheme:
    """Binned inner-product scheme on the unit 2-sphere.

    node_source is a node count (seeded pseudorandom unit vectors), a
    quadrature file path, or an (n, 3) array of unit vectors. Off-diagonal
    labels are equal-width bins of <x, y> over [-1, 1] (half-open, last
    bin closed, empty bins dropped); the diagonal gets a dedicated
    identity label so the diagonal axiom holds structurally.
    """
    if n_bins < 2:
        raise ValueError("sphere scheme needs n_bins >= 2")
    coords, weights = _sphere_nodes(node_source, seed)
    norms = np.linalg.norm(coords, axis=1)
    # written so that a NaN norm is refused too
    bad = np.nonzero(~(np.abs(norms - 1.0) <= 1e-9))[0]
    if bad.size:
        raise ValueError(
            f"node {int(bad[0])} is not a unit vector (|norm - 1| = "
            f"{abs(norms[bad[0]] - 1.0):.3e})")
    t = coords @ coords.T
    np.clip(t, -1.0, 1.0, out=t)
    rel, label_space = _binned_relation(
        t, np.linspace(-1.0, 1.0, n_bins + 1))
    return Scheme._adopt(make_quadrature(weights, coordinates=coords),
                         label_space, rel)


def delsarte_scheme(metric, weights=None, n_bins=None) -> Scheme:
    """Scheme of the squared distance function over a metric table.

    With n_bins=None every distinct squared distance becomes a label;
    otherwise off-diagonal values are grouped into equal-width half-open
    bins over (0, max], last bin closed. The involution is the identity
    and the zero-distance label is the diagonal.
    """
    d = np.asarray(metric, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("metric must be a square table")
    n = d.shape[0]
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValueError("metric entries must be finite and non-negative")
    asym = np.nonzero(d != d.T)
    if asym[0].size:
        x, y = int(asym[0][0]), int(asym[1][0])
        raise ValueError(f"metric is not symmetric at ({x}, {y}): "
                         f"{d[x, y]!r} vs {d[y, x]!r}")
    if (d.diagonal() != 0).any():
        x = int(np.nonzero(d.diagonal() != 0)[0][0])
        raise ValueError(f"metric[{x}, {x}] must be 0, got {d[x, x]!r}")
    zero = d == 0
    np.fill_diagonal(zero, False)
    if zero.any():
        x, y = [int(v[0]) for v in np.nonzero(zero)]
        raise ValueError(f"zero distance between distinct nodes ({x}, {y})")

    if d.max() > np.sqrt(np.finfo(float).max):
        raise ValueError(f"squared distance {float(d.max())!r}**2 "
                         f"overflows float64")
    c = d * d
    if n_bins is None:
        # the diagonal holds the only zeros, so it gets label 0
        values, rel = np.unique(c, return_inverse=True)
        rel = rel.reshape(n, n).astype(label_dtype(values.size))
        label_space = LabelSpace(involution=np.arange(values.size),
                                 identity_label=0)
    else:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        rel, label_space = _binned_relation(
            c, np.linspace(0.0, float(c.max()), n_bins + 1))
    if weights is None:
        space = _counting_space(n)
    else:
        space = make_quadrature(weights)
    return Scheme._adopt(space, label_space, rel)


# ---------------------------------------------------------------------------
# recipe strings, e.g. "cyclic n=12" or "sphere nodes=5000 bins=40 seed=1729"


RECIPE_PARAMETERS = {
    "cyclic": ("n",), "hamming": ("d", "q"), "group": ("generators",),
    "circle": ("nodes", "bins", "signed"),
    "sphere": ("nodes", "quadrature", "bins", "seed"),
    "delsarte": ("metric", "bins")}


def _recipe_value(value: str) -> str:
    """A recipe value, shell-quoted only where splitting would change it."""
    return value if shlex.split(value) == [value] else shlex.quote(value)


def materialize_recipe(text: str):
    """Build a Scheme from a recipe string; returns (scheme, recipe).

    Tokens split like a shell command line, so a quoted value may hold
    spaces (`sphere quadrature='my dir/q.txt' bins=4`).
    """
    tokens = shlex.split(text)
    if not tokens:
        raise ValueError("empty recipe")
    kind, params = tokens[0], {}
    if kind not in RECIPE_PARAMETERS:
        raise ValueError(f"unknown recipe kind {kind!r}")
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed recipe parameter {tok!r}")
        key, val = tok.split("=", 1)
        if key not in RECIPE_PARAMETERS[kind] or key in params:
            raise ValueError(f"unknown or repeated parameter {key}= in recipe "
                             f"{kind!r}; it takes each of "
                             f"{'= '.join(RECIPE_PARAMETERS[kind])}= once")
        params[key] = val

    def need(key):
        if key not in params:
            raise ValueError(f"recipe {kind!r} is missing the parameter "
                             f"{key}=")
        return params[key]

    if kind == "cyclic":
        scheme = cyclic_scheme(int(need("n")))
    elif kind == "hamming":
        scheme = hamming_scheme(int(need("d")), int(need("q")))
    elif kind == "group":
        gens = [[int(v) for v in g.split(",")]
                for g in need("generators").split(";")]
        scheme = group_action_scheme(gens)
    elif kind == "circle":
        signed = params.get("signed", "true")
        if signed not in ("true", "false"):
            raise ValueError(f"signed= must be true or false, not {signed!r}")
        scheme = circle_scheme(int(need("nodes")), int(need("bins")),
                               signed=signed == "true")
    elif kind == "sphere":
        if "nodes" in params and "quadrature" in params:
            raise ValueError("sphere takes nodes= or quadrature=, not both")
        if "nodes" not in params and "quadrature" not in params:
            raise ValueError("sphere needs nodes= or quadrature=")
        seed = int(params.get("seed", DEFAULT_SPHERE_SEED))
        source = (int(params["nodes"]) if "nodes" in params
                  else params["quadrature"])
        scheme = sphere_scheme(source, int(need("bins")), seed=seed)
    else:
        metric = np.loadtxt(need("metric"))
        bins = int(params["bins"]) if "bins" in params else None
        scheme = delsarte_scheme(metric, n_bins=bins)
    return scheme, " ".join([kind] + [f"{k}={_recipe_value(v)}"
                                      for k, v in params.items()])
