import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.errors import BadParams
from dworkbench.weights import WeightVector, build_v, hyper_data, is_self_dual, rank_of


def test_build_v_frozen_values():
    assert build_v(4, 9).entries == (0, 0, 0, 0, 0, 2, 3, 5, 8)
    assert build_v(2, 7).entries == (0, 0, 0, 2, 3, 4, 5)


def test_rank_of_canonical_labels():
    for n, N in ((2, 7), (4, 9), (6, 11)):
        assert rank_of(build_v(n, N)) == n


def test_self_duality_only_lowest_rank():
    assert is_self_dual(build_v(2, 7))
    assert not is_self_dual(build_v(4, 9))
    assert not is_self_dual(build_v(6, 11))


def test_build_v_entries_sum_to_zero():
    for n, N in ((2, 7), (4, 9), (6, 11), (2, 9), (4, 13)):
        v = build_v(n, N)
        assert sum(v.entries) % N == 0
        assert len(v.entries) == N


def test_build_v_rejects_bad_parameters():
    with pytest.raises(BadParams):
        build_v(3, 7)  # odd rank
    with pytest.raises(BadParams):
        build_v(8, 7)  # too large for N


def test_canonical_hyper_data():
    chis, rhos = hyper_data(build_v(2, 7))
    assert chis == (1, 6)
    assert rhos == (0, 0)


def test_hyper_data_disjoint_and_sized():
    for n, N in ((2, 7), (4, 9), (6, 11)):
        chis, rhos = hyper_data(build_v(n, N))
        assert len(chis) == len(rhos) == n
        assert not set(chis) & set(rhos)


def test_entries_must_balance():
    with pytest.raises(BadParams):
        WeightVector(7, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(BadParams):
        WeightVector(7, [0, 0, 0])


def _balanced(N):
    free = st.lists(st.integers(min_value=0, max_value=N - 1), min_size=N - 1, max_size=N - 1)
    return free.map(lambda es: es + [(-sum(es)) % N])


def translate(entries, c, N=9):
    return [(e + c) % N for e in entries]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((5, 7, 9, 13)).flatmap(lambda N: _balanced(N).map(lambda es: (N, es))))
def test_hyper_data_counts_against_negated_entries(label):
    # residue r is cancelled by each entry -r of v: one copy of r is the
    # chi side's, every further -r goes to the rho side
    N, entries = label
    chis, rhos = hyper_data(WeightVector(N, entries))
    assert list(chis) == sorted(chis) and list(rhos) == sorted(rhos)
    for r in range(N):
        m = sum(1 for e in entries if (e + r) % N == 0)
        assert chis.count(r) == max(0, 1 - m)
        assert rhos.count(r) == max(0, m - 1)


@settings(max_examples=80, deadline=None)
@given(_balanced(9), st.integers(min_value=0, max_value=8))
def test_rank_translate_invariance(entries, c):
    v = WeightVector(9, entries)
    assert rank_of(v) == rank_of(WeightVector(9, translate(entries, c)))


@settings(max_examples=80, deadline=None)
@given(_balanced(9))
def test_rank_negation_invariance(entries):
    v = WeightVector(9, entries)
    assert rank_of(v) == rank_of(WeightVector(9, [-e for e in entries]))
    assert 0 <= rank_of(v) <= 8


@settings(max_examples=60, deadline=None)
@given(_balanced(9), st.integers(min_value=0, max_value=8))
def test_hyper_data_translates_by_shift(entries, c):
    v = WeightVector(9, entries)
    chis, rhos = hyper_data(v)
    chis_t, rhos_t = hyper_data(WeightVector(9, translate(entries, c)))
    assert chis_t == tuple(sorted((r - c) % 9 for r in chis))
    assert rhos_t == tuple(sorted((r - c) % 9 for r in rhos))


@settings(max_examples=60, deadline=None)
@given(_balanced(9), st.integers(min_value=0, max_value=8))
def test_self_duality_is_class_invariant(entries, c):
    v = WeightVector(9, entries)
    assert is_self_dual(v) == is_self_dual(WeightVector(9, translate(entries, c)))
    assert is_self_dual(v) == is_self_dual(WeightVector(9, [-e for e in entries]))


def test_raw_sequence_inputs_accepted():
    assert rank_of((0, 0, 0, 2, 3, 4, 5), 7) == 2
