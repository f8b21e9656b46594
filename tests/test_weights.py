import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.errors import BadParams
from dworkbench.weights import (
    CharMultiset,
    WeightVector,
    build_v,
    cancel,
    hyper_data,
    is_self_dual,
    rank_of,
)


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
    assert chis.residues == (1, 6)
    assert rhos.residues == (0, 0)


def test_hyper_data_disjoint_and_sized():
    for n, N in ((2, 7), (4, 9), (6, 11)):
        chis, rhos = hyper_data(build_v(n, N))
        assert len(chis) == len(rhos) == n
        assert not set(chis.residues) & set(rhos.residues)


def test_char_multiset_normalizes_and_hashes():
    a = CharMultiset(7, [8, -1, 1])
    b = CharMultiset(7, [1, 6, 1])
    assert a == b and hash(a) == hash(b)
    assert a.residues == (1, 1, 6)
    assert 6 in a and 5 not in a


def test_cancel_removes_common_part():
    A = CharMultiset(7, [1, 1, 2, 5])
    B = CharMultiset(7, [1, 2, 2, 3])
    A2, B2 = cancel(A, B)
    assert A2.residues == (1, 5)
    assert B2.residues == (2, 3)
    assert not set(A2.residues) & set(B2.residues)


def test_weight_vector_translate():
    v = build_v(2, 7)
    assert v.translate(3).entries == tuple((e + 3) % 7 for e in v.entries)


def test_labels_live_mod_translation():
    v = build_v(2, 7)
    assert v.translate(2) == v
    assert hash(v.translate(2)) == hash(v)
    assert WeightVector(7, [1, 1, 1, 3, 4, 5, 6]) == v


def test_entries_must_balance():
    with pytest.raises(BadParams):
        WeightVector(7, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(BadParams):
        WeightVector(7, [0, 0, 0])


def _balanced(N):
    free = st.lists(st.integers(min_value=0, max_value=N - 1), min_size=N - 1, max_size=N - 1)
    return free.map(lambda es: es + [(-sum(es)) % N])


@settings(max_examples=80, deadline=None)
@given(_balanced(9), st.integers(min_value=0, max_value=8))
def test_rank_translate_invariance(entries, c):
    v = WeightVector(9, entries)
    assert rank_of(v) == rank_of(v.translate(c))


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
    chis_t, rhos_t = hyper_data(v.translate(c))
    assert chis_t.residues == tuple(sorted((r - c) % 9 for r in chis.residues))
    assert rhos_t.residues == tuple(sorted((r - c) % 9 for r in rhos.residues))


@settings(max_examples=60, deadline=None)
@given(_balanced(9), st.integers(min_value=0, max_value=8))
def test_self_duality_is_class_invariant(entries, c):
    v = WeightVector(9, entries)
    assert is_self_dual(v) == is_self_dual(v.translate(c))
    assert is_self_dual(v) == is_self_dual(WeightVector(9, [-e for e in entries]))


def test_raw_sequence_inputs_accepted():
    assert rank_of((0, 0, 0, 2, 3, 4, 5), 7) == 2
    chis, _ = hyper_data([0, 0, 0, 2, 3, 4, 5], 7)
    assert chis.residues == (1, 6)
