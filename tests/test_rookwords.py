"""Rook words and the cycle-lemma translations."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shi_ish.core import cyclic_shift, position_partition
from shi_ish.parking import is_parking_function, is_prime_parking_function
from shi_ish.rookwords import (
    is_prime_rook_word,
    is_rook_word,
    orbit_certificate,
    prime_rook_words,
    rook_words,
    tail_and_dof,
)

from reference import (
    parking_to_rook_word,
    pollak_empty_spot,
    prime_parking_to_rook_word,
    prime_rook_word_to_parking,
    rook_word_to_parking,
)


def test_rook_word_predicate():
    assert is_rook_word((3, 1, 5, 5, 2))
    assert not is_rook_word((2, 4, 4, 5, 3))  # value 1 missing below w_1 = 2
    assert is_rook_word((1,))
    assert not is_rook_word(())
    assert not is_rook_word((2, 6, 6, 1, 6))  # 6 > n


def test_prime_rook_word_predicate():
    assert is_prime_rook_word((1, 2, 2))
    assert not is_prime_rook_word((2, 1, 1))
    assert is_prime_rook_word((1,))
    assert not is_prime_rook_word((1, 3, 1))  # 3 > n - 1


@pytest.mark.parametrize("n", range(1, 6))
def test_rook_word_count_matches_parking_count(n):
    assert len(list(rook_words(n))) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_prime_rook_word_count(n):
    assert len(list(prime_rook_words(n))) == (n - 1) ** (n - 1)


@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(1, n + 1), min_size=n, max_size=n)))
def test_orbit_certificate_cycle_lemma(word):
    """Every orbit over [n+1] holds exactly one parking function and one
    rook word, and the certificate points at them."""
    cert = orbit_certificate(word)
    assert cert.shifts[cert.parking_index] == rook_word_to_parking(
        cert.shifts[cert.rook_index]
    )
    assert sum(is_parking_function(w) for w in cert.shifts) == 1
    assert sum(is_rook_word(w) for w in cert.shifts) == 1


def test_translation_fixtures():
    assert rook_word_to_parking((1, 4, 4, 2, 5)) == (4, 1, 1, 5, 2)
    assert rook_word_to_parking((2, 8, 8, 1, 8, 8, 2, 5)) == (4, 1, 1, 3, 1, 1, 4, 7)
    assert prime_rook_word_to_parking((1, 2, 2)) == (2, 1, 1)
    assert parking_to_rook_word((4, 1, 1, 5, 2)) == (1, 4, 4, 2, 5)
    assert prime_parking_to_rook_word((2, 1, 1)) == (1, 2, 2)


def test_translations_validate_their_input():
    with pytest.raises(ValueError):
        rook_word_to_parking((2, 3, 3))
    with pytest.raises(ValueError):
        parking_to_rook_word((2, 2, 3))
    with pytest.raises(ValueError):
        prime_rook_word_to_parking((2, 1, 1))
    with pytest.raises(ValueError):
        prime_parking_to_rook_word((1, 2, 2))


@pytest.mark.parametrize("n", range(1, 5))
def test_translations_are_mutually_inverse(n):
    for rook in rook_words(n):
        park = rook_word_to_parking(rook)
        assert is_parking_function(park)
        assert parking_to_rook_word(park) == rook
    for prook in prime_rook_words(n):
        ppark = prime_rook_word_to_parking(prook)
        assert is_prime_parking_function(ppark)
        assert prime_parking_to_rook_word(ppark) == prook


@pytest.mark.parametrize("n", range(1, 5))
def test_translations_shift_letters_so_positions_survive(n):
    for rook in rook_words(n):
        park = rook_word_to_parking(rook)
        assert position_partition(park) == position_partition(rook)
    for prook in prime_rook_words(n):
        assert position_partition(prime_rook_word_to_parking(prook)) == (
            position_partition(prook)
        )


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(1, n + 1), min_size=n, max_size=n)))
def test_pollak_simulation_matches_predicate(word):
    n = len(word)
    assert (pollak_empty_spot(word) == n + 1) == is_parking_function(word)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(1, n + 1), min_size=n, max_size=n)))
def test_pollak_empty_spot_rotates_with_the_word(word):
    n = len(word)
    empty = pollak_empty_spot(word)
    shifted = cyclic_shift(word, 1, n + 1)
    assert pollak_empty_spot(shifted) == empty % (n + 1) + 1


def test_tail_and_dof_fixture():
    assert tail_and_dof((2, 1, 1, 6, 3, 4)) == ((6,), 3)
    # no tail: value n itself missing
    assert tail_and_dof((1, 1, 1)) == ((), 1)
    # tail running all the way down to w_1 + 1
    assert tail_and_dof((1, 3, 2)) == ((2, 3), 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_dof_ranges_over_1_to_n(n):
    dofs = {tail_and_dof(w)[1] for w in rook_words(n)}
    assert dofs == set(range(1, n + 1))
