"""The public names of the package, pinned: adding or removing an export
shows up as a change to this list."""

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
    # submodules become attributes of the package once imported, so they
    # are left out: which ones are depends on what ran before
    names = sorted(n for n, v in vars(linfty).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
