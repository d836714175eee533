"""
L-infinity algebras, modules and their morphisms over F2 as finite
computational objects: exact unshuffle combinatorics, bit-packed F2
multilinear algebra, executable defining relations, composition of module
morphisms, and the restriction-of-scalars construction along an algebra
morphism, together with independent brute-force oracles for all of it.

Importing the package loads none of its modules.  Each export resolves on
access (PEP 562), by importing its home module the first time, so
``from linfty import restrict_module`` loads what ``restrict`` needs and
nothing else.  ``import linfty.cli``, which every command runs, loads
``cli``, ``fixtures``, ``gfa``, ``jsonio``, ``restrict`` and ``structures``;
``oracle`` loads only with ``linfty lemma4``, and ``perm`` only with it or
``linfty unshuffles``.
"""

import importlib

# Each export's home module.  A name is looked up there on every access and
# never bound here: a binding in this namespace would be a second copy of
# the function, which code patching the home module would not see.
_HOMES = {
    "gfa": ("Elem", "GradedSpace", "SymMultiMap", "flip_bit", "zero_map"),
    "jsonio": ("Bundle", "FormatError", "digest", "merge_bundles", "parse_bundle",
               "serialize_bundle"),
    "oracle": ("LabeledOperator", "lemma4_equal", "lemma4_lhs", "lemma4_rhs", "naive_residual"),
    "perm": ("BlockSpec", "Perm", "apply", "filtered_unshuffles", "identity", "one_line",
             "ordered_partitions", "primed_unshuffles", "slot_rotation", "unshuffles"),
    "restrict": ("FunctorialityReport", "RestrictionContext", "RestrictionError",
                 "UnverifiedInputWarning", "check_functoriality", "classical_restriction",
                 "context", "restrict_module", "restrict_morphism"),
    "structures": ("LinfAlgebra", "LinfModule", "LinfMorphism", "ModuleMorphism", "compose",
                   "first_failure", "identity_morphism", "jacobi_residual", "modhom_residual",
                   "module_residual", "morphism_residual", "residual"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("fixtures",) + tuple(_HOMES)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
