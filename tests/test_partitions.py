import pytest

from oracles import KOSTKA_WEIGHT_CAP, gale_ryser, kostka
from partlab.counting import enumerate_partitions
from partlab.partitions import (
    Partition,
    conjugate,
    dominates,
    durfee,
    is_graphical_eg,
    is_graphical_hh,
)


class TestPartitionClass:
    def test_canonicalizes_order(self):
        assert Partition([1, 3, 2]).parts == (3, 2, 1)

    def test_weight(self):
        assert Partition((4, 2, 1)).weight == 7
        assert Partition().weight == 0

    def test_rejects_nonpositive_and_fractional(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((-1,))
        with pytest.raises(ValueError):
            Partition((2.5,))

    def test_accepts_integral_floats_and_numpy_ints(self):
        import numpy as np

        assert Partition((2.0, np.int64(3))).parts == (3, 2)

    def test_text_round_trip(self):
        lam = Partition((4, 2, 1, 1))
        assert lam.to_text() == "4,2,1,1"
        assert Partition.from_text("4,2,1,1") == lam
        assert Partition.from_text("") == Partition()
        assert Partition().to_text() == ""

    def test_equality_and_hash(self):
        assert Partition((2, 1)) == Partition([1, 2])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) != Partition((3,))

    def test_sequence_protocol(self):
        lam = Partition((3, 1))
        assert len(lam) == 2
        assert list(lam) == [3, 1]
        assert lam[0] == 3


class TestConjugate:
    def test_example(self):
        assert conjugate(Partition((3, 1))).parts == (2, 1, 1)

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_accepts_bare_tuple(self):
        assert conjugate((3, 1)).parts == (2, 1, 1)

    def test_involution_small_weights(self):
        for n in range(21):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam


class TestDurfee:
    def test_examples(self):
        assert durfee((2, 1, 1)) == 1
        assert durfee((3, 3, 3)) == 3
        assert durfee(()) == 0
        assert durfee((1,)) == 1

    def test_square_is_in_both_diagrams(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                d = durfee(lam)
                conj = conjugate(lam)
                assert all(lam[i] >= d for i in range(d))
                assert all(conj[i] >= d for i in range(d))
                # maximality
                if d < len(lam):
                    assert lam[d] < d + 1


class TestDominance:
    def test_examples(self):
        assert dominates((1, 1, 1, 1), (2, 2))
        assert dominates((2, 2), (4,))
        assert not dominates((4,), (2, 2))
        assert dominates((3, 1), (3, 1))

    def test_weight_mismatch_raises(self):
        with pytest.raises(ValueError, match="dominance undefined"):
            dominates((2, 1), (2, 2))

    def test_incomparable_pair(self):
        # classic: (3,3) vs (4,1,1), neither dominates
        assert not dominates((3, 3), (4, 1, 1))
        assert not dominates((4, 1, 1), (3, 3))

    def test_antisymmetry_small_weights(self):
        for n in range(13):
            plist = list(enumerate_partitions(n))
            for a in plist:
                for b in plist:
                    if dominates(a, b) and dominates(b, a):
                        assert a == b

    def test_conjugation_reverses_order(self):
        for n in range(13):
            plist = list(enumerate_partitions(n))
            for a in plist:
                for b in plist:
                    assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


class TestGraphicality:
    def test_examples(self):
        assert is_graphical_hh((4, 2, 2, 2, 2))
        assert is_graphical_eg((4, 2, 2, 2, 2))
        assert not is_graphical_eg((3, 1))
        assert not is_graphical_hh((3, 1))
        assert is_graphical_eg(())
        assert is_graphical_hh(())

    def test_odd_weight_never_graphical(self):
        # (1,1,1) satisfies the prefix inequality but has odd weight
        assert not is_graphical_eg((1, 1, 1))
        for n in range(1, 18, 2):
            for lam in enumerate_partitions(n):
                assert not is_graphical_eg(lam)
                assert not is_graphical_hh(lam)

    def test_oracles_agree_small_weights(self):
        for n in range(19):
            for lam in enumerate_partitions(n):
                assert is_graphical_eg(lam) == is_graphical_hh(lam), lam

    def test_degree_too_large_for_vertex_count(self):
        assert not is_graphical_hh((4, 1, 1))
        assert not is_graphical_eg((5, 1))
        # but a star is fine: max degree equal to parts-1 is realizable
        assert is_graphical_hh((5, 1, 1, 1, 1, 1))


class TestGaleRyser:
    def test_examples(self):
        # two vertices of degree 2 on one side, matched by (2,2) columns
        assert gale_ryser((2, 2), (2, 2))
        # one side asks a single vertex for degree 4 but the other side
        # has only two vertices available
        assert not gale_ryser((4,), (2, 2))
        assert gale_ryser((1, 1), (2,))

    def test_weight_mismatch_raises(self):
        with pytest.raises(ValueError, match="degree sums"):
            gale_ryser((2, 1), (2, 2))

    def test_matches_dominance_definition(self):
        for n in range(11):
            plist = list(enumerate_partitions(n))
            for a in plist:
                for b in plist:
                    assert gale_ryser(a, b) == dominates(a, conjugate(b))


class TestKostka:
    def test_examples(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((1, 1), (2,)) == 0
        assert kostka((2,), (2,)) == 1
        assert kostka((), ()) == 1

    def test_same_shape_content_gives_one(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                assert kostka(lam, lam) == 1

    def test_positive_iff_dominated(self):
        for n in range(9):
            plist = list(enumerate_partitions(n))
            for lam in plist:
                for mu in plist:
                    assert (kostka(lam, mu) > 0) == dominates(mu, lam)

    def test_row_shape_counts_one(self):
        # a single row admits exactly one weakly increasing arrangement
        # of any fixed content
        assert kostka((4,), (2, 1, 1)) == 1
        assert kostka((4,), (1, 1, 1, 1)) == 1
        assert kostka((5,), (5,)) == 1

    def test_column_shape(self):
        # a single column needs all letters distinct, one way when the
        # content is all ones
        assert kostka((1, 1, 1), (1, 1, 1)) == 1
        assert kostka((1, 1), (1, 1)) == 1

    def test_hook_value(self):
        # shape (3,1), content (1,1,1,1): standard tableaux of a hook,
        # count is C(3-1+1-1, 1-1)? easier: enumerate by hand, the
        # letter in the foot can be 2, 3, or 4
        assert kostka((3, 1), (1, 1, 1, 1)) == 3

    def test_weight_mismatch_raises(self):
        with pytest.raises(ValueError, match="kostka undefined"):
            kostka((2, 1), (1, 1))

    def test_cap_enforced(self):
        column = tuple([1] * KOSTKA_WEIGHT_CAP)
        assert kostka(column, column) == 1
        big = column + (1,)
        with pytest.raises(ValueError, match="^weight 21 above enumeration cap 20$"):
            kostka(big, big)
