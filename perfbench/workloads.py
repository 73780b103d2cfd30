"""The benchmark's three workloads: set-up commands, jobs and expected verdicts.

Every input is a function of the workload seed. The seed is the sphere node
seed, the ``--seed`` passed to ``verify`` and ``hypergroup``, and the seed of
the corruption applied to one catalog output. The expected verdicts follow
from how each input was built:

* finite counting-measure schemes (cyclic, Hamming, a regular group action)
  satisfy every axiom with every gated residual exactly 0.0;
* the circle grid is a rotation orbit scheme, so CAS2 and row valency are
  exactly constant (residual 0.0) whatever the Borel family;
* random sphere nodes never give constant intersection numbers or row
  masses, while CAS1, CAS3 and the fiber-transpose identity hold by
  construction (dedicated diagonal label, symmetric inner-product bins);
* the corrupted cyclic scheme has one off-diagonal entry relabelled, so the
  transpose table (CAS3) and row valency break, the Markov kernel is refused
  and the algebra round trip cannot induce an involution.
"""

import random
from dataclasses import dataclass
from itertools import permutations

VERIFY_TOL = "1e-12"

# check name -> status for reports that pass every gated check
VERIFY_PASS = {
    "cas1_diagonal": "pass", "cas3_transpose": "pass",
    "cas2_intersection_constancy": "pass", "fiber_transpose_identity": "pass",
    "row_valency_constancy": "pass", "pushforward_identity": "pass",
    "cas4_commutativity": "info", "cas5_symmetry": "info",
}
BMA_PASS = {
    "bma1a_approximate_identity": "pass", "bma1b_j_absorption": "pass",
    "bma2_composition_closure": "pass", "bma3_transpose_closure": "pass",
    "bma4_commutativity": "info", "bma5_symmetry": "info",
}
BMA_SKIPPED = {"bma_checks": "skipped"}
HYPERGROUP_PASS = {
    "markov_kernel": "pass", "identity_convolution": "pass",
    "pullback_convolution": "pass", "transport": "pass",
    "anti_automorphism": "pass", "commutativity_tv": "info",
    "cas4_deviation": "info", "representative_spread": "info",
}
CORRESPOND_PASS = {
    "partition_roundtrip": "pass", "involution_correspondence": "pass",
    "identity_correspondence": "pass", "label_bijection": "info",
}

# stands for every check that gates the exit code (not "info"/"skipped")
ALL_GATED = "*"


@dataclass
class Job:
    """One CLI invocation and the verdict its report must carry."""

    name: str
    argv: list
    exit_code: int
    statuses: dict
    # checks whose residual must be exactly 0.0; may contain ALL_GATED
    exact_zero: tuple = ()
    # info checks whose residual must be > 0 (a property of the input)
    nonzero: tuple = ()
    # failing checks that must name a witness beyond the generic detail
    witnessed: tuple = ()

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int
    # catalog argv lists; each writes one input file
    setup: list
    jobs: list
    # (source file, corrupted copy) made by corrupt_relation after the catalog
    corruption: tuple = None


def s4_regular_generators():
    """Generators of S4 acting on its 24 elements by left multiplication."""
    elements = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(elements)}
    gens = []
    for g in ((1, 0, 2, 3), (1, 2, 3, 0)):
        images = [index[tuple(g[h[i]] for i in range(4))] for h in elements]
        gens.append(",".join(str(v) for v in images))
    return gens


def corrupt_relation(text: str, seed: int) -> tuple:
    """Relabel one off-diagonal entry of a cyclic scheme file.

    The pair (a, b) and the new label are drawn from ``seed``. The new label
    is neither the identity, the old label nor its involution partner, so
    the transposed entry can never match and CAS3 fails at (a, b).
    Returns (new text, (a, b), old label, new label).
    """
    lines = text.split("\n")
    start = lines.index("relation") + 1
    n = 0
    while start + n < len(lines) and lines[start + n].strip():
        n += 1
    rng = random.Random(seed)
    a = rng.randrange(n)
    b = (a + rng.randrange(1, n)) % n
    row = lines[start + a].split()
    old = int(row[b])
    choices = [d for d in range(1, n) if d not in (old, (n - old) % n)]
    new = rng.choice(choices)
    row[b] = str(new)
    lines[start + a] = " ".join(row)
    return "\n".join(lines), (a, b), old, new


def _continuum(seed: int) -> Workload:
    s = str(seed)
    setup = [
        ["catalog", "circle", "--nodes", "240", "--bins", "60",
         "--out", "circle240.scheme"],
        ["catalog", "circle", "--nodes", "120", "--bins", "30",
         "--out", "circle120.scheme"],
        ["catalog", "sphere", "--nodes", "3000", "--bins", "40",
         "--seed", s, "--out", "sphere3000.scheme"],
    ]
    circle_exact = ("cas2_intersection_constancy", "row_valency_constancy")
    jobs = [
        Job("verify circle240 singletons",
            ["verify", "circle240.scheme", "--tol", VERIFY_TOL, "--seed", s],
            0, {**VERIFY_PASS, **BMA_SKIPPED}, exact_zero=circle_exact),
        Job("verify circle120 bins",
            ["verify", "circle120.scheme", "--tol", VERIFY_TOL,
             "--borel-family", "bins", "--seed", s],
            0, {**VERIFY_PASS, **BMA_SKIPPED}, exact_zero=circle_exact),
        Job("verify sphere3000 sampled",
            ["verify", "sphere3000.scheme", "--tol", VERIFY_TOL,
             "--max-pairs", "50", "--seed", s],
            1, {**VERIFY_PASS, **BMA_SKIPPED,
                "cas2_intersection_constancy": "fail",
                "row_valency_constancy": "fail",
                "pushforward_identity": "fail"},
            exact_zero=("cas1_diagonal", "cas3_transpose"),
            witnessed=("cas2_intersection_constancy",
                       "row_valency_constancy")),
    ]
    return Workload("continuum", seed, setup, jobs)


def _algebra(seed: int) -> Workload:
    s = str(seed)
    gens = s4_regular_generators()
    setup = [
        ["catalog", "cyclic", "--n", "48", "--out", "cyclic48.scheme"],
        ["catalog", "hamming", "--d", "6", "--q", "2",
         "--out", "hamming6_2.scheme"],
        ["catalog", "group", "--generator", gens[0], "--generator", gens[1],
         "--out", "s4_regular.scheme"],
        ["catalog", "circle", "--nodes", "120", "--bins", "30", "--unsigned",
         "--out", "circle120_unsigned.scheme"],
    ]
    # (file, counting measure, residuals > 0, further residuals == 0.0)
    valid = [
        ("cyclic48.scheme", True, ("cas5_symmetry", "bma5_symmetry"), ()),
        ("hamming6_2.scheme", True, (),
         ("cas4_commutativity", "cas5_symmetry")),
        ("s4_regular.scheme", True,
         ("cas4_commutativity", "bma4_commutativity"), ()),
        ("circle120_unsigned.scheme", False, (),
         ("cas2_intersection_constancy", "row_valency_constancy")),
    ]
    jobs = []
    for path, counting, nonzero, zero in valid:
        stem = path.split(".")[0]
        exact = ((ALL_GATED,) if counting else ()) + zero
        jobs += [
            Job(f"verify {stem}",
                ["verify", path, "--tol", VERIFY_TOL, "--seed", s],
                0, {**VERIFY_PASS, **BMA_PASS},
                exact_zero=exact, nonzero=nonzero),
            Job(f"hypergroup {stem}",
                ["hypergroup", path, "--probes", "10", "--seed", s],
                0, HYPERGROUP_PASS),
            Job(f"correspond {stem}", ["correspond", path], 0,
                CORRESPOND_PASS, exact_zero=(ALL_GATED,)),
        ]
    bad = "cyclic48_corrupt.scheme"
    jobs += [
        Job("verify cyclic48_corrupt",
            ["verify", bad, "--tol", VERIFY_TOL, "--seed", s], 1,
            {"cas1_diagonal": "pass", "cas3_transpose": "fail",
             "cas2_intersection_constancy": "fail",
             "fiber_transpose_identity": "fail",
             "row_valency_constancy": "fail", "pushforward_identity": "fail",
             "cas4_commutativity": "info", "cas5_symmetry": "info",
             "bma1a_approximate_identity": "pass",
             "bma1b_j_absorption": "fail", "bma2_composition_closure": "fail",
             "bma3_transpose_closure": "fail", "bma4_commutativity": "info",
             "bma5_symmetry": "info"},
            exact_zero=("cas1_diagonal", "bma1a_approximate_identity"),
            witnessed=("cas3_transpose", "cas2_intersection_constancy",
                       "row_valency_constancy")),
        Job("hypergroup cyclic48_corrupt",
            ["hypergroup", bad, "--probes", "10", "--seed", s], 1,
            {"markov_kernel": "fail"}, witnessed=("markov_kernel",)),
        Job("correspond cyclic48_corrupt", ["correspond", bad], 1,
            {"roundtrip": "fail"}, witnessed=("roundtrip",)),
    ]
    return Workload("algebra", seed, setup, jobs,
                    corruption=("cyclic48.scheme", bad))


def _roundtrip(seed: int) -> Workload:
    setup = [
        ["catalog", "sphere", "--nodes", "500", "--bins", "20",
         "--seed", str(seed), "--out", "sphere500.scheme"],
        ["catalog", "circle", "--nodes", "240", "--bins", "60",
         "--out", "circle240.scheme"],
    ]
    jobs = [
        Job("correspond sphere500", ["correspond", "sphere500.scheme"], 0,
            CORRESPOND_PASS, exact_zero=(ALL_GATED,)),
        Job("correspond circle240 tol",
            ["correspond", "circle240.scheme", "--tol", VERIFY_TOL], 0,
            CORRESPOND_PASS, exact_zero=(ALL_GATED,)),
    ]
    return Workload("roundtrip", seed, setup, jobs)


WORKLOADS = {"continuum": _continuum, "algebra": _algebra,
             "roundtrip": _roundtrip}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
