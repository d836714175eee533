import itertools
import math

import pytest

from linfty.perm import (
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


def test_identity_basics():
    assert identity(3).images == (1, 2, 3)
    assert identity(1).images == (1,)
    assert identity(7).images == tuple(range(1, 8))
    with pytest.raises(ValueError):
        identity(0)


def test_perm_rejects_non_bijections():
    for bad in [(1, 1), (2, 3), (0, 1)]:
        with pytest.raises(ValueError):
            Perm(bad)


def test_apply_figure_seven():
    sigma = Perm((2, 4, 1, 6, 3, 5, 7))
    xs = tuple(f"x{i}" for i in range(1, 8))
    assert apply(sigma, xs) == ("x2", "x4", "x1", "x6", "x3", "x5", "x7")


def test_apply_identity_and_swap():
    assert apply(identity(4), ("a", "b", "c", "d")) == ("a", "b", "c", "d")
    assert apply(Perm((2, 1)), ("a", "b")) == ("b", "a")
    with pytest.raises(ValueError):
        apply(Perm((2, 1)), ("a", "b", "c"))


def _table(sizes):
    return [one_line(p) for p in unshuffles(BlockSpec(sizes))]


def test_s4_tables():
    assert _table((1, 3)) == ["1234", "2134", "3124", "4123"]
    assert _table((2, 2)) == ["1234", "1324", "1423", "2314", "2413", "3412"]
    assert _table((3, 1)) == ["1234", "1243", "1342", "2341"]


def test_unshuffles_lexicographic_and_blockwise_increasing():
    spec = BlockSpec((2, 1, 2))
    fam = unshuffles(spec)
    assert [p.images for p in fam] == sorted(p.images for p in fam)
    for p in fam:
        off = 0
        for s in spec.sizes:
            block = p.images[off:off + s]
            assert all(a < b for a, b in zip(block, block[1:]))
            off += s


def _multinomial(sizes):
    n = sum(sizes)
    out = math.factorial(n)
    for s in sizes:
        out //= math.factorial(s)
    return out


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_unshuffle_counts_small():
    for n in range(1, 7):
        for sizes in _compositions(n):
            assert len(unshuffles(BlockSpec(sizes))) == _multinomial(sizes)


def test_unshuffle_factorization_count():
    # every sigma in S_n factors uniquely through a (p, n-p)-unshuffle
    # followed by permutations inside the blocks
    for n in range(2, 6):
        for p in range(1, n):
            seen = set()
            for u in unshuffles(BlockSpec((p, n - p))):
                for a in itertools.permutations(range(1, p + 1)):
                    for b in itertools.permutations(range(p + 1, n + 1)):
                        gamma = Perm(tuple(a) + tuple(b))
                        seen.add(apply(gamma, u.images))
            assert len(seen) == math.factorial(n)


def test_primed_subset_and_distinct_sizes():
    spec = BlockSpec((1, 2, 3))
    assert primed_unshuffles(spec) == unshuffles(spec)  # all sizes distinct
    spec = BlockSpec((2, 2))
    primed = set(primed_unshuffles(spec))
    assert primed <= set(unshuffles(spec))
    assert len(primed) == 3  # 6 / 2!


def test_primed_examples():
    assert [one_line(p) for p in primed_unshuffles(BlockSpec((1, 1)))] == ["12"]
    for n in range(1, 6):
        assert primed_unshuffles(BlockSpec((1,) * n)) == (identity(n),)
    with pytest.raises(ValueError):
        primed_unshuffles(BlockSpec((2, 1)))


def test_primed_1123_count_matches_brute_force():
    # independent oracle: filter all of S_7 by the defining conditions
    sizes = (1, 1, 2, 3)
    starts = [0, 1, 2, 4]
    count = 0
    for images in itertools.permutations(range(1, 8)):
        ok = True
        off = 0
        for s in sizes:
            if any(images[off + i] >= images[off + i + 1] for i in range(s - 1)):
                ok = False
                break
            off += s
        if not ok:
            continue
        for l in range(3):
            if sizes[l] == sizes[l + 1] and images[starts[l]] > images[starts[l + 1]]:
                ok = False
                break
        if ok:
            count += 1
    assert count == 210
    assert len(primed_unshuffles(BlockSpec(sizes))) == 210


def test_primed_count_formula():
    # multinomial divided by the factorials of the size multiplicities
    for sizes in [(1, 1), (1, 1, 2), (2, 2), (1, 2, 2), (1, 1, 2, 2), (2, 2, 2)]:
        mult = {}
        for s in sizes:
            mult[s] = mult.get(s, 0) + 1
        expected = _multinomial(sizes)
        for m in mult.values():
            expected //= math.factorial(m)
        assert len(primed_unshuffles(BlockSpec(sizes))) == expected


def test_filtered_unshuffles():
    assert [one_line(p) for p in filtered_unshuffles(BlockSpec((1, 1)), 1, 2)] == ["21"]
    assert [one_line(p) for p in filtered_unshuffles(BlockSpec((2, 2)), 2, 4)] == \
        ["1423", "2413", "3412"]
    assert [one_line(p) for p in filtered_unshuffles(BlockSpec((1, 3)), 4, 4)] == \
        ["1234", "2134", "3124"]
    with pytest.raises(ValueError):
        filtered_unshuffles(BlockSpec((1, 1)), 3, 1)


def test_slot_rotation():
    assert slot_rotation(2, 1).images == (2, 1)
    assert slot_rotation(3, 1).images == (2, 3, 1)
    for n in range(1, 7):
        for p in range(1, n + 1):
            q = n - p + 1
            xs = ("y",) + tuple(f"x{i}" for i in range(1, q))
            assert apply(slot_rotation(n, p), xs) == xs[1:] + ("y",)
    with pytest.raises(ValueError):
        slot_rotation(2, 3)


def test_ordered_partitions():
    assert [s.sizes for s in ordered_partitions(3)] == [(1, 1, 1), (1, 2), (3,)]
    assert [s.sizes for s in ordered_partitions(1)] == [(1,)]
    assert len(ordered_partitions(7)) == 15
    for spec in ordered_partitions(6):
        assert spec.is_sorted() and spec.n == 6


def test_empty_spec_gives_empty_permutation():
    fam = unshuffles(BlockSpec(()))
    assert fam == (Perm(()),)
    assert apply(Perm(()), ()) == ()


def test_one_line_round_trip():
    assert one_line(Perm((2, 4, 1, 3))) == "2413"
    assert one_line(identity(9)) == "123456789"
    big = Perm(tuple(range(2, 12)) + (1,))
    assert one_line(big) == "2,3,4,5,6,7,8,9,10,11,1"
    # the string gives the images back: one digit each up to n = 9, commas beyond
    for p in unshuffles(BlockSpec((2, 3))):
        assert tuple(map(int, one_line(p))) == p.images
    assert tuple(int(t) for t in one_line(big).split(",")) == big.images


def test_blockspec_validation():
    with pytest.raises(ValueError):
        BlockSpec((1, 0, 2))


def test_string_forms():
    assert str(Perm((2, 4, 1, 3))) == "2413"
    assert str(BlockSpec((2, 2))) == "(2,2)"


def test_doctests():
    import doctest

    import linfty.perm
    assert doctest.testmod(linfty.perm).failed == 0
