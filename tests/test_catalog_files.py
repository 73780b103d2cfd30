"""Catalog files are pinned byte for byte.

The benchmark's set-up writes its inputs with `casmat catalog`, and a
faster writer or builder must not change one byte of them. The digests
below were taken from the files the row-by-row `%d` writer and the
`np.digitize` binning wrote. The old writer also lives here as an oracle,
compared with `write_scheme` on random relations whose label counts cross
the decimal digit-width boundaries.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from casmat import LabelSpace, Scheme, make_quadrature, write_scheme
from casmat import scheme as scheme_module
from casmat.catalog import materialize_recipe
from casmat.scheme import SCHEME_HEADER

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _s4_regular_recipe():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return "group generators=" + ";".join(module.s4_regular_generators())


PINNED = [
    ("circle nodes=240 bins=60 signed=true",
     "5207c4ca7a920a0585a2c3cdfd92c211eaa0220add11fa49d975cf82dc612499"),
    ("circle nodes=120 bins=30 signed=true",
     "3d3d6d03b7646676e505d61966028e9089011ebcbfcb0ad4675b9d62f7ef3b33"),
    ("circle nodes=120 bins=30 signed=false",
     "eb012006f6798f4377a1a3439a949df53adc34c80fea0ebf6bafa6cdce513463"),
    ("cyclic n=48",
     "e8661aff4abbde6d236f02e8c1ea31c2a92e90b3800946f80028c61edb910f79"),
    ("hamming d=6 q=2",
     "3b084e3f0262b3b9e98c67acb8d0a794332635a6e4538015fb68f185aae5effe"),
    (None,  # the S4 regular action of the algebra workload
     "652f77c0a0cc44c3b3adee2c061c433bf1c3902b3fff3dadf898e2b94d267611"),
    ("sphere nodes=500 bins=20 seed=101",
     "70f73e2b54cdb348411956cc6fc6699a6cc41d688a87adb144ad13e1767671f6"),
]


@pytest.mark.parametrize("recipe, digest", PINNED)
def test_setup_files_keep_their_bytes(tmp_path, recipe, digest):
    recipe = recipe or _s4_regular_recipe()
    scheme, written = materialize_recipe(recipe)
    assert written == recipe
    path = tmp_path / "s.scheme"
    write_scheme(scheme, path, recipe=written)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def oracle_write_scheme(scheme, path, recipe=None):
    """The text writer as it was: one `%d` format per relation row."""
    ls = scheme.label_space
    with open(path, "w") as fh:
        fh.write(SCHEME_HEADER + "\n")
        if recipe:
            fh.write(f"recipe {recipe}\n")
        fh.write(f"nodes {scheme.space.node_count}\n")
        fh.write("weights\n")
        ws = [repr(float(v)) for v in scheme.space.weights]
        for start in range(0, len(ws), 6):
            fh.write(" ".join(ws[start:start + 6]) + "\n")
        fh.write(f"labels {ls.size}\n")
        for i in range(ls.size):
            line = f"{i} {int(ls.involution[i])}"
            if ls.bin_meta is not None and ls.bin_meta[i] is not None:
                a, b = ls.bin_meta[i]
                line += f" {repr(a)} {repr(b)}"
            fh.write(line + "\n")
        if ls.identity_label is None:
            fh.write("identity none\n")
        else:
            fh.write(f"identity {ls.identity_label}\n")
        if scheme.borel_bins is not None:
            fh.write(f"binfamily {len(scheme.borel_bins)}\n")
            for W in scheme.borel_bins:
                fh.write(" ".join(str(i) for i in W) + "\n")
        fh.write("relation\n")
        fmt = " ".join(["%d"] * scheme.space.node_count) + "\n"
        for row in scheme.relation:
            fh.write(fmt % tuple(row.tolist()))


def random_scheme(rng, n, L, borel_bins=False):
    """A scheme over L labels on n nodes: label 0 on the diagonal and every
    other label at least once off it, so the widest label is written."""
    off_diag = ~np.eye(n, dtype=bool)
    values = np.concatenate([np.arange(1, L),
                             rng.integers(0, L, size=n * n - n - (L - 1))])
    rel = np.zeros((n, n), dtype=np.int32)
    rel[off_diag] = rng.permutation(values)
    bins = None
    if borel_bins:
        cut = L // 2
        bins = [tuple(range(cut)), tuple(range(cut, L))]
    return Scheme(make_quadrature(rng.random(n) + 0.5),
                  LabelSpace(involution=np.arange(L), identity_label=0),
                  rel, borel_bins=bins)


def assert_oracle_bytes(tmp_path, scheme, recipe=None):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write_scheme(scheme, ours, recipe=recipe)
    oracle_write_scheme(scheme, theirs, recipe=recipe)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("L", [2, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_writer_matches_row_format_oracle(tmp_path, L):
    rng = np.random.default_rng(L)
    # the fewest nodes that hold every label, then more than that
    n = next(m for m in range(2, L + 2) if m * m - m >= L - 1)
    assert_oracle_bytes(tmp_path, random_scheme(rng, n, L))
    assert_oracle_bytes(tmp_path, random_scheme(rng, n + 7, L),
                        recipe="cyclic n=7")
    assert_oracle_bytes(tmp_path, random_scheme(rng, n + 30, L,
                                                borel_bins=True))


def test_writer_matches_oracle_on_one_node(tmp_path):
    one = Scheme(make_quadrature(np.ones(1)),
                 LabelSpace(involution=np.arange(1), identity_label=0),
                 np.zeros((1, 1), dtype=np.int32))
    assert_oracle_bytes(tmp_path, one)
    assert_oracle_bytes(tmp_path, one, recipe="cyclic n=1")


@pytest.mark.parametrize("block_entries", [1, 50, 333, 4096])
def test_writer_blocks_match_oracle_across_block_edges(tmp_path, monkeypatch,
                                                       block_entries):
    # blocks of one row, of a few rows and of a ragged final block: 61
    # rows in blocks of 1, 1, 5 and 61; 13 rows in 1, 3, 13 and 13
    monkeypatch.setattr(scheme_module, "_COUNT_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(block_entries)
    assert_oracle_bytes(tmp_path, random_scheme(rng, 61, 1001))
    assert_oracle_bytes(tmp_path, random_scheme(rng, 13, 12),
                        recipe="cyclic n=13")
