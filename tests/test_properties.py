"""Property tests: ranking, conjugation, the Erdos-Gallai kernel against
Havel-Hakimi, the batched (multiplicity-form) graphicality and
dominance kernels against their scalar references in tests/oracles.py,
and Kostka positivity against dominance, on generated inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import conjugate, kostka
from partlab import counting, sampling
from partlab.partitions import Partition, dominates, is_graphical_eg, is_graphical_hh
from partlab.rng import RandomStream

MAX_N = 40
TABLE = counting.build_table(MAX_N)
# derandomized, so every run draws the same examples
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


@SETTINGS
@given(st.data())
def test_rank_inverts_unrank(data):
    n = data.draw(st.integers(0, MAX_N), label="n")
    idx = data.draw(st.integers(0, TABLE.count(n) - 1), label="idx")
    assert counting.rank(TABLE, counting.unrank(TABLE, n, idx)) == idx


@SETTINGS
@given(st.lists(st.integers(1, 30), max_size=30).map(Partition))
def test_conjugation_is_an_involution(lam):
    once = conjugate(lam)
    assert once.weight == lam.weight
    assert conjugate(once) == lam


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_graphicality_tests_agree_on_sampled_partitions(seed):
    parts, _ = sampling.sample_fristedt_batch(
        1000, 1, RandomStream(seed, 0), pdc=True)
    assert is_graphical_eg(parts[0]) == is_graphical_hh(parts[0])


@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize("pdc", [False, True])
@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_tests_match_the_oracles(n, pdc, seed):
    batch, _ = sampling.sample_fristedt_batch(
        n, 8 if pdc else 2, RandomStream(seed, 1), pdc=pdc)
    parts = list(batch)
    eg = [oracles.is_graphical_eg(lam) for lam in parts]
    assert batch.graphical().tolist() == eg
    assert eg == [is_graphical_hh(lam) for lam in parts]
    half = len(parts) // 2
    for lo, hi in ((batch[:half], batch[half:]), (batch[half:], batch[:half])):
        assert lo.dominated_by(hi).tolist() == [
            oracles.dominates(a, b) for a, b in zip(lo, hi)]


@SETTINGS
@given(st.data())
def test_kostka_positive_exactly_under_dominance(data):
    # K_{lam,mu} > 0 iff mu <= lam in dominance order
    n = data.draw(st.integers(0, 10), label="n")
    lam, mu = (
        counting.unrank(TABLE, n, data.draw(st.integers(0, TABLE.count(n) - 1), label=label))
        for label in ("lam", "mu")
    )
    assert (kostka(lam, mu) > 0) == dominates(mu, lam)
