"""The public names of the package, pinned: adding or removing an export
shows up as a change to this list."""

import importlib
import types

import linfty

PUBLIC = [
    "BlockSpec", "Bundle", "Elem", "FormatError", "FunctorialityReport", "GradedSpace",
    "LabeledOperator", "LinfAlgebra", "LinfModule", "LinfMorphism", "ModuleMorphism", "Perm",
    "RestrictionContext", "RestrictionError", "SymMultiMap", "UnverifiedInputWarning",
    "apply", "check_functoriality", "classical_restriction", "compose", "context", "digest",
    "filtered_unshuffles", "first_failure", "flip_bit", "identity", "identity_morphism",
    "jacobi_residual", "lemma4_equal", "lemma4_lhs", "lemma4_rhs", "merge_bundles",
    "modhom_residual", "module_residual", "morphism_residual", "naive_residual", "one_line",
    "ordered_partitions", "parse_bundle", "primed_unshuffles", "residual", "restrict_module",
    "restrict_morphism", "serialize_bundle", "slot_rotation", "unshuffles", "zero_map",
]


def test_public_names_are_pinned():
    # the exports resolve on access, so they are read through __all__ and
    # dir(), not vars(); submodules are left out of dir()'s names
    assert sorted(linfty.__all__) == PUBLIC
    names = sorted(n for n in dir(linfty) if not n.startswith("_")
                   and not isinstance(getattr(linfty, n), types.ModuleType))
    assert names == PUBLIC
    for name in PUBLIC:  # the object its defining module holds now, not a copy
        value = getattr(linfty, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    ns = {}
    exec("from linfty import *", ns)
    assert sorted(n for n in ns if n != "__builtins__") == PUBLIC
    assert not set(PUBLIC) & set(vars(linfty))  # every access above left no binding to go stale
