"""casmat: compact association schemes, numerically.

Quadrature-discretized measure spaces, dense pair kernels with weighted
composition, relation maps with association-scheme axiom checks, candidate
Bose-Mesner algebras with structure constants and approximate identities,
both directions of the scheme/algebra correspondence, and the hypergroup
convolution on label spaces.
"""

import os as _os

# honor CASMAT_THREADS before numpy (and its BLAS) is first imported
_threads = _os.environ.get("CASMAT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .errors import CasmatError, ParseError, SpaceMismatchError
from .measure import (MeasureSpace, integrate, make_quadrature,
                      product_integrate, read_quadrature, write_quadrature)
from .kernel import (IdentityReport, Kernel, check_approximate_identity,
                     conjugate, diagonal_kernel, hadamard, matmul,
                     ones_kernel, sup_norm, transpose)
from .scheme import (CasReport, LabelSpace, Scheme, SurjectivityError, fiber,
                     intersection_number, label_dtype, read_scheme,
                     verify_cas, write_scheme)
from .bma import (AlgebraBasis, BmaReport, IndicatorKernels,
                  RankDeficiencyError, build_approximate_identity,
                  default_probes, hat_bump, indicator_bump, span_expand,
                  structure_constants, validate_closure, verify_bma)
from .correspondence import (CharacterPartition, DiagonalContaminationError,
                             GroupingBudgetError, InvolutionUndefinedError,
                             RoundtripReport, algebra_of_scheme,
                             character_partition, roundtrip_check,
                             scheme_of_algebra)
from .hypergroup import (HypergroupData, RepresentativeDependenceError,
                         StrongCasReport, convolve_functions,
                         convolve_measure_point, convolve_point_masses,
                         kernel_of_scheme, random_probe_pairs,
                         verify_strong_cas)
from .catalog import (DEFAULT_SPHERE_SEED, circle_scheme, cyclic_group,
                      cyclic_scheme, delsarte_scheme, dihedral_group,
                      group_action_scheme, hamming_scheme,
                      materialize_recipe, sphere_scheme, symmetric_group)

__all__ = [
    "__version__",
    "CasmatError", "ParseError", "SpaceMismatchError",
    "MeasureSpace", "make_quadrature", "integrate", "product_integrate",
    "read_quadrature", "write_quadrature",
    "Kernel", "IdentityReport", "matmul", "hadamard", "transpose",
    "conjugate", "sup_norm", "ones_kernel", "diagonal_kernel",
    "check_approximate_identity",
    "LabelSpace", "Scheme", "CasReport", "SurjectivityError", "fiber",
    "intersection_number", "label_dtype", "verify_cas", "read_scheme",
    "write_scheme",
    "AlgebraBasis", "BmaReport", "IndicatorKernels", "RankDeficiencyError",
    "span_expand",
    "structure_constants", "validate_closure", "verify_bma",
    "build_approximate_identity", "indicator_bump", "hat_bump",
    "default_probes",
    "CharacterPartition", "DiagonalContaminationError",
    "GroupingBudgetError", "InvolutionUndefinedError", "RoundtripReport",
    "algebra_of_scheme", "character_partition", "scheme_of_algebra",
    "roundtrip_check",
    "HypergroupData", "RepresentativeDependenceError", "StrongCasReport",
    "kernel_of_scheme", "convolve_point_masses", "convolve_measure_point",
    "convolve_functions", "random_probe_pairs", "verify_strong_cas",
    "cyclic_scheme", "hamming_scheme", "group_action_scheme",
    "circle_scheme", "sphere_scheme", "delsarte_scheme",
    "materialize_recipe", "symmetric_group", "cyclic_group",
    "dihedral_group", "DEFAULT_SPHERE_SEED",
]
