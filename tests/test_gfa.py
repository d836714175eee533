import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfty.gfa import Elem, GradedSpace, SymMultiMap, flip_bit, unit, zero_map

V = GradedSpace({0: 3, 1: 2})
e, f, h = (0, 0), (0, 1), (0, 2)
w0, w1 = (1, 0), (1, 1)


def test_space_basics():
    assert V.dim(0) == 3 and V.dim(1) == 2 and V.dim(5) == 0
    assert V.degrees() == (0, 1)
    assert V.total_dim == 5
    assert V.basis() == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    assert GradedSpace({0: 3, 2: 0}) == GradedSpace({0: 3})  # zero dims dropped
    with pytest.raises(ValueError):
        GradedSpace({0: -1})
    assert V.elem(1, 0b11) == Elem(1, 3) and V.elem(4, 0) == Elem(4, 0)
    assert V.basis_elem(1, 1) == Elem(1, 2)
    with pytest.raises(ValueError, match=r"^no basis element \(1, 2\)$"):
        V.basis_elem(1, 2)
    with pytest.raises(ValueError, match="^bits 100 exceed dim 2 in degree 1$"):
        V.elem(1, 0b100)


def test_elem_arithmetic():
    a = V.basis_elem(0, 0)
    b = V.basis_elem(0, 2)
    assert (a + b).bits == 0b101
    assert (a + a).is_zero
    assert list((a + b).indices()) == [0, 2]
    with pytest.raises(ValueError):
        a + V.basis_elem(1, 0)
    with pytest.raises(ValueError):
        V.elem(1, 0b100)  # only two basis vectors in degree 1


def _bracket():
    # l2(e, f) = h on the degree-0 part
    return SymMultiMap(2, 0, V, V, [((e, f), 0b100)])


def test_eval_symmetry_and_canonicalization():
    l2 = _bracket()
    assert l2.eval((unit(e), unit(f))).bits == 0b100
    assert l2.eval((unit(f), unit(e))).bits == 0b100  # stored on the sorted key only
    assert l2.value((f, e)) == 0b100
    assert l2.eval((unit(e), unit(e))).is_zero


def test_eval_zero_and_multilinearity():
    l2 = _bracket()
    zero = V.zero(0)
    assert l2.eval((zero, unit(f))).is_zero
    x = unit(e) + unit(h)
    assert l2.eval((x, unit(f))).bits == 0b100  # l2(h, f) = 0 contributes nothing


def test_eval_empty_degree_is_zero_not_error():
    l2 = _bracket()
    out = l2.eval((unit(w0), unit(w1)))  # output degree 2 has no basis
    assert out.degree == 2 and out.is_zero


def test_eval_arity_and_space_checks():
    l2 = _bracket()
    with pytest.raises(ValueError):
        l2.eval((unit(e),))
    with pytest.raises(ValueError):
        l2.eval((Elem(1, 0b100), unit(e)))  # three bits in a 2-dim degree


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_eval_additive_in_each_slot(xb, yb, zb):
    l2 = _bracket()
    x, y, z = Elem(0, xb), Elem(0, yb), Elem(0, zb)
    lhs = l2.eval((x + y, z))
    rhs = l2.eval((x, z)) + l2.eval((y, z))
    assert lhs == rhs
    assert l2.eval((z, x + y)) == l2.eval((z, x)) + l2.eval((z, y))


def test_degree_bookkeeping_enforced():
    with pytest.raises(ValueError):
        # output degree should be 0; claiming bits in a 1-dim degree-0 slot is
        # fine, but a key whose entry exceeds the codomain dimension is not
        SymMultiMap(2, 0, V, GradedSpace({0: 1}), [((e, f), 0b10)])
    with pytest.raises(ValueError):
        SymMultiMap(2, 0, V, V, [(((0, 5), f), 0b1)])  # no such basis element


def test_zero_map_and_addition():
    z = zero_map(2, 0, V, V)
    l2 = _bracket()
    assert z.is_zero
    assert z.eval((unit(e), unit(f))).is_zero
    assert l2 + z == l2
    assert (l2 + l2).is_zero
    a = SymMultiMap(2, 0, V, V, [((e, e), 0b1)])
    b = SymMultiMap(2, 0, V, V, [((e, h), 0b10)])
    c = _bracket()
    assert (a + b) + c == a + (b + c)
    with pytest.raises(ValueError):
        l2 + zero_map(3, 1, V, V)


def test_is_zero_witness():
    assert zero_map(1, 0, V, V).witness() is None
    m = _bracket()
    assert not m.is_zero
    key, val = m.witness()
    assert key == (e, f) and val == Elem(0, 0b100)


def test_entries_canonical_and_merged():
    m = SymMultiMap(2, 0, V, V, [((f, e), 0b100), ((e, f), 0b001)])
    assert m.entries() == (((e, f), 0b101),)
    again = SymMultiMap(2, 0, V, V, m.entries())
    assert again == m


def test_module_slot_not_sorted():
    M = GradedSpace({0: 2})
    k2 = SymMultiMap(2, 0, V, M, [((h, (0, 0)), 0b10)], last_space=M)
    # the module slot is pinned: (h, m0) and "swapped" lookups are different
    assert k2.value((h, (0, 0))) == 0b10
    assert k2.eval((unit(h), M.basis_elem(0, 0))).bits == 0b10
    with pytest.raises(ValueError):
        # module slot holds an element outside the module space
        k2.eval((unit(h), Elem(0, 0b100)))


def test_module_map_sorts_only_algebra_slots():
    M = GradedSpace({0: 1, 1: 1})
    k3 = SymMultiMap(3, 1, V, M, [((f, h, (0, 0)), 0b1)], last_space=M)
    assert k3.value((h, f, (0, 0))) == 0b1


def test_flip_bit():
    l2 = _bracket()
    cleared = flip_bit(l2, (e, f), 2)
    assert cleared.is_zero
    added = flip_bit(l2, (f, e), 0)
    assert added.value((e, f)) == 0b101
    with pytest.raises(ValueError):
        flip_bit(l2, (e, f), 3)


def test_eval_on_several_general_arguments():
    # cross-check the product expansion against a brute-force double loop
    entries = [((e, f), 0b100), ((e, h), 0b001), ((f, h), 0b010)]
    m = SymMultiMap(2, 0, V, V, entries)
    for xb, yb in itertools.product(range(8), repeat=2):
        expected = 0
        for i in range(3):
            for j in range(3):
                if xb >> i & 1 and yb >> j & 1:
                    expected ^= m.value(((0, i), (0, j)))
        assert m.eval((Elem(0, xb), Elem(0, yb))).bits == expected
