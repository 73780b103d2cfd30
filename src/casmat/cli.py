"""Command-line front end: scheme files in, JSON verification reports out.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/IO/parse error or
a run refused (over a work budget, out of memory).
Reports are single JSON documents; with identical inputs and flags they
are byte-identical except for the wall_time_s field.
"""

import argparse
import hashlib
import json
import math
import os
import shlex
import sys
import time

import numpy as np

from . import __version__
from .bma import build_approximate_identity, default_probes, indicator_bump, verify_bma
from .catalog import (DEFAULT_SPHERE_SEED, RECIPE_PARAMETERS,
                      materialize_recipe)
from .correspondence import (GroupingBudgetError, algebra_of_scheme,
                             roundtrip_check)
from .errors import ParseError, _LineReader
from .hypergroup import kernel_of_scheme, random_probe_pairs, verify_strong_cas
from .scheme import (_label_map, read_scheme, resolve_borel_family,
                     verify_cas, write_scheme)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

BMA_AUTO_LABEL_CAP = 64
BMA_AUTO_NODE_CAP = 1024
# fiber pairs evaluated x nodes: about a minute of CAS2 work
VERIFY_WORK_BUDGET = 10**9
# the BMA checks' steps, (2 * labels + 7) * n**3 (see _bma_work):
# measured on one core at 0.7 ns (hamming(10,2), 3.1e10 in 20 s) to
# 0.8 ns a step (sphere(800,40), 4.6e10 in 38 s), so at most about 35 s.
# Kept apart from the CAS2 budget, since --max-pairs samples none of the
# fibers the BMA checks reduce. The hypergroup's probes, dense products
# too, are priced against it (see _probe_work).
BMA_WORK_BUDGET = 4 * 10**10
# the hypergroup's (L, L, L) float64 convolution table
HYPERGROUP_TABLE_BYTES = 1 << 30
# seeded random probes next to the basis members
BMA_RANDOM_PROBES = 3
# a block of a file read for its digest
_DIGEST_BLOCK_BYTES = 1 << 20


def _digest(path) -> str:
    """sha256 of the file, read a block at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_DIGEST_BLOCK_BYTES):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _check(name, status, residual=None, tolerance=None, witnesses=()):
    return {"name": name, "status": status,
            "residual": None if residual is None else float(residual),
            "tolerance": None if tolerance is None else float(tolerance),
            "witnesses": list(witnesses)}


def _quantitative(name, residual, tolerance, witnesses=()):
    status = "pass" if residual <= tolerance else "fail"
    wit = list(witnesses)
    if status == "fail" and not wit:
        wit = [{"detail": f"residual {residual!r} exceeds "
                          f"tolerance {tolerance!r}"}]
    return _check(name, status, residual, tolerance, wit)


def _structural(name, ok, witnesses=()):
    wit = list(witnesses)
    if not ok and not wit:
        wit = [{"detail": f"{name} failed"}]
    return _check(name, "pass" if ok else "fail", 0.0 if ok else 1.0, 0.0, wit)


class _Refusal(Exception):
    """A run refused instead of checked: one error line, exit 2."""


def _load_scheme(path):
    if not os.path.exists(path):
        raise _Refusal(f"no such file: {path}")
    try:
        return read_scheme(path)
    except ValueError as exc:  # ParseError included
        raise _Refusal(f"{path}: {exc}") from None


def _parse_family_arg(text):
    if text in ("singletons", "pairs", "bins"):
        return text
    if not text.startswith("file:"):
        raise ValueError(f"unknown borel family {text!r}")
    fam_path = text[len("file:"):]
    if not os.path.exists(fam_path):
        raise ValueError(f"borel family file not found: {fam_path}")
    sets = []
    try:
        with _LineReader(fam_path) as reader:
            while True:
                lineno, line = reader.next_content()
                if line is None:
                    break
                if line.startswith("#"):
                    continue
                try:
                    sets.append(tuple(int(t) for t in line.split()))
                except ValueError:
                    raise ParseError(f"malformed label set {line!r}",
                                     line=lineno) from None
    except ParseError as exc:
        raise ParseError(f"{fam_path}: {exc}") from None
    if not sets:
        raise ValueError(f"borel family file {fam_path} has no sets")
    return sets


def _check_numeric_flags(args):
    """Refuse a numeric flag value no check can use."""
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise _Refusal(f"--tol must be finite and non-negative, got {tol!r}")
    if getattr(args, "diagonal_slack", 0) < 0:
        raise _Refusal(f"--diagonal-slack must be non-negative, "
                       f"got {args.diagonal_slack}")
    if getattr(args, "seed", 0) < 0:
        raise _Refusal(f"--seed must be non-negative, got {args.seed}")
    for flag in ("max_pairs", "probes"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise _Refusal(f"--{flag.replace('_', '-')} must be at least 1, "
                           f"got {value}")


def _bma_work(scheme):
    """Steps of the BMA checks: the structure constants reduce every full
    fiber, n * n**2 pair x node steps, and the identity is composed on both
    sides with each basis member and random probe, n**3 per product."""
    products = 2 * (scheme.label_count + BMA_RANDOM_PROBES)
    return (products + 1) * scheme.space.node_count**3


def _check_verify_work(scheme, max_pairs, bma_on, family):
    """Refuse a verify whose CAS2 work or, under --bma on, whose BMA work
    exceeds its budget. A fiber pair costs n steps, plus F**2 for its
    projected table when the F label sets of family overlap.
    A sample of max_pairs holds up to twice as many pairs on a self-paired
    label, whose sample is closed under swaps. The n steps a pair hold
    for sampled runs with many labels too: a fiber's reduction keeps
    state only for the cells its pairs touch, with no L**2 work a
    fiber."""
    n = scheme.space.node_count
    L = scheme.label_count
    per_pair = n
    if _label_map(family, L) is None:
        per_pair += len(family) ** 2
    self_paired = scheme.label_space.involution == np.arange(L)
    counts = scheme.fiber_counts
    if max_pairs is not None:
        # no fiber holds more than n * n pairs, so a larger cap samples
        # nothing (and 2 * cap stays within int64)
        cap = min(max_pairs, n * n)
        counts = np.minimum(counts, np.where(self_paired, 2 * cap, cap))
    work = int(counts.sum()) * per_pair
    if work > VERIFY_WORK_BUDGET:
        suggest = VERIFY_WORK_BUDGET // (
            per_pair * (L + int(self_paired.sum())))
        fix = (f"sample the fibers with --max-pairs {suggest}" if suggest
               else "no sample fits; use a smaller borel family")
        raise _Refusal(f"verify would evaluate {work:.1e} CAS2 steps, "
                       f"{per_pair} per fiber pair (budget "
                       f"{VERIFY_WORK_BUDGET:.0e}); {fix}")
    work = _bma_work(scheme)
    if bma_on and work > BMA_WORK_BUDGET:
        products = 2 * (L + BMA_RANDOM_PROBES)
        raise _Refusal(f"the BMA checks would take {work:.1e} steps (budget "
                       f"{BMA_WORK_BUDGET:.0e}): {L} full-fiber reductions "
                       f"and {products} dense products over {n} nodes; skip "
                       f"them with --bma off")


def cmd_verify(args):
    scheme = _load_scheme(args.scheme)
    # --bma auto skips the BMA checks outside its caps or over their
    # budget; --bma on refuses a run over that budget
    run_bma = args.bma == "on" or (
        args.bma == "auto"
        and scheme.label_count <= BMA_AUTO_LABEL_CAP
        and scheme.space.node_count <= BMA_AUTO_NODE_CAP
        and _bma_work(scheme) <= BMA_WORK_BUDGET)
    try:
        family = _parse_family_arg(args.borel_family)
        sets, _ = resolve_borel_family(scheme, family)
    except ValueError as exc:
        raise _Refusal(exc) from None
    _check_verify_work(scheme, args.max_pairs, args.bma == "on", sets)
    # verify_cas refuses only a bad family, tolerance, slack or sample
    # size, all checked above
    cas = verify_cas(scheme, borel_family=family, tolerance=args.tol,
                     diagonal_slack=args.diagonal_slack,
                     max_pairs_per_fiber=args.max_pairs, seed=args.seed)
    checks = [
        _structural("cas1_diagonal", cas.cas1_ok,
                    cas.witnesses.get("cas1", [])),
        _structural("cas3_transpose", cas.cas3_ok,
                    cas.witnesses.get("cas3", [])),
        _quantitative("cas2_intersection_constancy", cas.cas2_max_deviation,
                      args.tol, cas.witnesses.get("cas2", [])),
        _quantitative("fiber_transpose_identity",
                      cas.involution_identity_max_deviation, args.tol),
        _quantitative("row_valency_constancy", cas.row_valency_max_deviation,
                      args.tol, cas.witnesses.get("row_valency", [])),
        _quantitative("pushforward_identity", cas.pushforward_max_deviation,
                      args.tol),
        _check("cas4_commutativity", "info", cas.cas4_max_deviation, args.tol),
        _check("cas5_symmetry", "info", 0.0 if cas.symmetric else 1.0),
    ]

    if run_bma:
        try:
            alg = algebra_of_scheme(scheme)
            bump, nbhd = indicator_bump(scheme.label_space)
            identity = build_approximate_identity(scheme, nbhd, bump)
            probes, policy = default_probes(alg, count=BMA_RANDOM_PROBES,
                                            seed=args.seed)
            bma = verify_bma(alg, [identity], probes, tolerance=args.tol,
                             probe_policy=policy)
        except ValueError as exc:
            checks.append(_structural("bma_checks", False,
                                      [{"detail": str(exc)}]))
        else:
            checks += [
                _quantitative("bma1a_approximate_identity",
                              float(bma.bma1a_residuals[-1].max()), args.tol),
                _quantitative("bma1b_j_absorption", bma.bma1b_deviation,
                              args.tol),
                _quantitative("bma2_composition_closure", bma.bma2_residual,
                              args.tol),
                _structural("bma3_transpose_closure", bma.bma3_ok),
                _check("bma4_commutativity", "info", bma.commutative_residual,
                       args.tol),
                _check("bma5_symmetry", "info", bma.symmetric_residual,
                       args.tol),
            ]
    else:
        checks.append(_check("bma_checks", "skipped"))

    arguments = {"tol": args.tol, "borel_family": args.borel_family,
                 "diagonal_slack": args.diagonal_slack,
                 "max_pairs": args.max_pairs, "seed": args.seed,
                 "bma": args.bma}
    return arguments, args.scheme, checks


def _catalog_recipe(args) -> str:
    """The recipe string that rebuilds what `catalog <kind>` asks for: each
    flag is stored under its recipe parameter, and those set are joined."""
    if args.kind == "recipe":
        return args.spec
    params = {key: getattr(args, key) for key in RECIPE_PARAMETERS[args.kind]}
    if args.kind == "group":
        params["generators"] = ";".join(
            ",".join(str(int(v)) for v in g.split(","))
            for g in args.generators)
    if args.kind == "sphere" and args.nodes is None:
        # the seed places random nodes only
        params["seed"] = None
    return shlex.join([args.kind] + [f"{key}={value}"
                                     for key, value in params.items()
                                     if value is not None])


def cmd_catalog(args):
    try:
        scheme, recipe = materialize_recipe(_catalog_recipe(args))
    except ValueError as exc:
        raise _Refusal(exc) from None
    write_scheme(scheme, args.out, recipe=recipe)
    checks = [_check("materialized", "pass", 0.0, 0.0,
                     [{"recipe": recipe, "nodes": scheme.space.node_count,
                       "labels": scheme.label_count}])]
    return {"kind": args.kind, "out": args.out}, args.out, checks


def cmd_correspond(args):
    scheme = _load_scheme(args.scheme)
    arguments = {"tol": args.tol}
    try:
        rt = roundtrip_check(scheme, grouping_tolerance=args.tol)
    except GroupingBudgetError as exc:
        raise _Refusal(exc) from None
    except ValueError as exc:
        checks = [_structural("roundtrip", False, [{"detail": str(exc)}])]
        return arguments, args.scheme, checks
    wit = [rt.witness] if rt.witness else []
    checks = [
        _structural("partition_roundtrip", rt.partition_match, wit),
        _structural("involution_correspondence", rt.involution_consistent),
        _structural("identity_correspondence", rt.identity_consistent),
        _check("label_bijection", "info", None, None,
               [rt.as_dict()["label_bijection"]]),
    ]
    return arguments, args.scheme, checks


def _probe_work(n, probes):
    """Steps of the hypergroup's probes, in BMA steps: each composes two
    dense kernels, n**3, and does about 10**5 steps of interpreted work
    however small n is. On one core a probe took 14 ms on circle(240,60)
    and 60 us at n = 2."""
    return probes * (n**3 + 10**5)


def cmd_hypergroup(args):
    scheme = _load_scheme(args.scheme)
    n, L = scheme.space.node_count, scheme.label_count
    # the table, and the n**3-step pass over every fiber that fills it
    if L**3 * 8 > HYPERGROUP_TABLE_BYTES or n**3 > VERIFY_WORK_BUDGET:
        raise _Refusal(f"hypergroup would build a {L}x{L}x{L} convolution "
                       f"table of {L**3 * 8:.1e} bytes (cap "
                       f"{HYPERGROUP_TABLE_BYTES:.1e}) and run {n**3:.1e} "
                       f"CAS2 steps (budget {VERIFY_WORK_BUDGET:.0e})")
    work = _probe_work(n, args.probes)
    if work > BMA_WORK_BUDGET:
        fit = BMA_WORK_BUDGET // _probe_work(n, 1)
        raise _Refusal(f"hypergroup would take {work:.1e} steps for "
                       f"{args.probes} probes over {n} nodes (budget "
                       f"{BMA_WORK_BUDGET:.0e}); use --probes {fit} or "
                       f"fewer")
    arguments = {"probes": args.probes, "tol": args.tol, "seed": args.seed}
    try:
        hg = kernel_of_scheme(scheme)
    except ValueError as exc:
        checks = [_structural("markov_kernel", False, [{"detail": str(exc)}])]
        return arguments, args.scheme, checks
    probes = random_probe_pairs(scheme.label_count, args.probes,
                                seed=args.seed)
    rep = verify_strong_cas(hg, probes, tolerance=args.tol, seed=args.seed)
    checks = [_structural("markov_kernel", True)]
    for name in ("identity_convolution", "pullback_convolution", "transport",
                 "anti_automorphism"):
        checks.append(_quantitative(name, rep.residuals[name], args.tol))
    checks.append(_check("commutativity_tv", "info",
                         rep.residuals["commutativity_tv"], args.tol))
    checks.append(_check("cas4_deviation", "info",
                         rep.residuals["cas4_deviation"], args.tol))
    checks.append(_check("representative_spread", "info",
                         rep.representative_spread, args.tol))
    return arguments, args.scheme, checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casmat",
        description="construct and numerically verify compact association "
                    "schemes and their Bose-Mesner algebras")
    parser.add_argument("--version", action="version",
                        version=f"casmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the scheme axiom checks")
    p.add_argument("scheme", help="path to a #casmat-scheme v1 file")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--borel-family", default="singletons",
                   help="singletons | pairs | bins | file:PATH")
    p.add_argument("--diagonal-slack", type=int, default=0)
    p.add_argument("--max-pairs", type=int, default=None,
                   help="cap fiber pairs with a seeded swap-closed sample")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bma", choices=("auto", "on", "off"), default="auto")
    p.add_argument("--report", default=None, help="also write the JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="materialize a scheme file")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("cyclic")
    k.add_argument("--n", type=int, required=True)
    k = kinds.add_parser("hamming")
    k.add_argument("--d", type=int, required=True)
    k.add_argument("--q", type=int, required=True)
    k = kinds.add_parser("group")
    k.add_argument("--generator", dest="generators", action="append",
                   required=True, metavar="GENERATOR",
                   help="permutation as comma-separated images, repeatable")
    k = kinds.add_parser("circle")
    k.add_argument("--nodes", type=int, required=True)
    k.add_argument("--bins", type=int, required=True)
    k.add_argument("--unsigned", dest="signed", action="store_const",
                   const="false", default="true")
    k = kinds.add_parser("sphere")
    k.add_argument("--nodes", type=int, default=None)
    k.add_argument("--quadrature", default=None,
                   help="#casmat-quadrature v1 file with unit 3-vectors")
    k.add_argument("--bins", type=int, required=True)
    k.add_argument("--seed", type=int, default=DEFAULT_SPHERE_SEED)
    k = kinds.add_parser("delsarte")
    k.add_argument("--metric", required=True,
                   help="whitespace-separated distance matrix file")
    k.add_argument("--bins", type=int, default=None)
    k = kinds.add_parser("recipe")
    k.add_argument("--spec", required=True, help='e.g. "cyclic n=12"')
    for k in kinds.choices.values():
        k.add_argument("--out", required=True)
        k.add_argument("--report", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("correspond",
                       help="round-trip the scheme through its algebra")
    p.add_argument("scheme")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("hypergroup",
                       help="check the label-convolution identities")
    p.add_argument("scheme")
    p.add_argument("--probes", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_hypergroup)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code. A refusal is one
    error line and exit 2; a report goes to stdout only with exit 0 or 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", 0) is None:
            env_seed = os.environ.get("CASMAT_SEED", "20259")
            try:
                args.seed = int(env_seed)
            except ValueError:
                args.seed = -1
            if args.seed < 0:
                raise _Refusal(f"CASMAT_SEED must be a non-negative integer, "
                               f"got {env_seed!r}")
        _check_numeric_flags(args)
        started = time.perf_counter()
        arguments, path, checks = args.func(args)
        report = {
            "schema": "casmat-report v1",
            "tool_version": __version__,
            "command": args.command,
            "arguments": arguments,
            "input_digest": _digest(path),
            "checks": checks,
            "wall_time_s": time.perf_counter() - started,
        }
        text = json.dumps(report, indent=2, sort_keys=True)
        # written first, so a report on stdout means exit 0 or 1
        if args.report:
            try:
                with open(args.report, "w") as fh:
                    fh.write(text + "\n")
            except OSError:
                if args.command == "catalog":
                    # a refused catalog leaves no scheme behind
                    os.remove(args.out)
                raise
    except (_Refusal, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    failed = any(c["status"] == "fail" for c in checks)
    return EXIT_FAIL if failed else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
