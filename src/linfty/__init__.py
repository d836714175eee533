"""
L-infinity algebras, modules and their morphisms over F2 as finite
computational objects: exact unshuffle combinatorics, bit-packed F2
multilinear algebra, executable defining relations, composition of module
morphisms, and the restriction-of-scalars construction along an algebra
morphism, together with independent brute-force oracles for all of it.
"""

from .gfa import Elem, GradedSpace, SymMultiMap, flip_bit, zero_map
from .jsonio import Bundle, FormatError, digest, merge_bundles, parse_bundle, serialize_bundle
from .oracle import LabeledOperator, lemma4_equal, lemma4_lhs, lemma4_rhs, naive_residual
from .perm import (
    BlockSpec,
    Perm,
    apply,
    filtered_unshuffles,
    identity,
    one_line,
    ordered_partitions,
    primed_unshuffles,
    slot_rotation,
    unshuffles,
)
from .restrict import (
    FunctorialityReport,
    RestrictionContext,
    RestrictionError,
    UnverifiedInputWarning,
    check_functoriality,
    classical_restriction,
    context,
    restrict_module,
    restrict_morphism,
)
from .structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    compose,
    first_failure,
    identity_morphism,
    jacobi_residual,
    modhom_residual,
    module_residual,
    morphism_residual,
    residual,
)

__version__ = "0.1.0"
