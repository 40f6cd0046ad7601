"""Parking functions, labeled Dyck paths, prime factorization."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shi_ish import parking
from shi_ish.core import Graph, _region_scan, position_partition
from shi_ish.parking import (
    is_parking_function,
    is_prime_parking_function,
    parking_functions,
    prime_parking_functions,
)

from reference import (
    check_labeled_dyck,
    compose_factors,
    dyck_to_word,
    factorize_parking,
    orbit,
    path_returns,
    pollak_empty_spot,
    prime_components,
    shuffle_compose,
    word_to_dyck,
)


def parks_by_simulation(word):
    """Drive cars onto a one-way street: car i wants spot w_i, rolls forward
    to the first free spot, fails if it runs off the end."""
    n = len(word)
    taken = [False] * n
    for want in word:
        spot = want - 1
        while spot < n and taken[spot]:
            spot += 1
        if spot == n:
            return False
        taken[spot] = True
    return True


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)))
def test_parking_matches_car_simulation(word):
    assert is_parking_function(word) == parks_by_simulation(word)


@pytest.mark.parametrize("n", range(1, 6))
def test_parking_function_count(n):
    assert len(list(parking_functions(n))) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_prime_parking_function_count(n):
    # (n-1)^(n-1), with the size-1 convention giving a single word (1,)
    got = list(prime_parking_functions(n))
    assert len(got) == max(1, (n - 1) ** (n - 1))
    assert all(is_parking_function(w) for w in got)


def test_prime_size_one_convention():
    assert is_prime_parking_function((1,))
    assert list(prime_parking_functions(1)) == [(1,)]


def test_empty_word_is_not_parking():
    assert not is_parking_function(())
    assert not is_prime_parking_function(())


def test_graph_filtered_parking_functions():
    # with no edges only injective words survive, i.e. the permutations
    perms = list(parking_functions(3, Graph.empty(3)))
    assert len(perms) == 6
    assert all(sorted(w) == [1, 2, 3] for w in perms)
    # the complete graph filters nothing
    assert list(parking_functions(3, Graph.complete(3))) == list(
        parking_functions(3)
    )


def test_graph_filter_uses_position_partition_arcs():
    g = Graph(3, frozenset({(1, 2)}))
    kept = set(parking_functions(3, g))
    for w in kept:
        for a, b in _arcs_of(w):
            assert (a, b) in g.edges
    assert (1, 1, 2) in kept  # positions {1,2} share letter 1, arc (1,2)
    assert (1, 2, 1) not in kept  # arc (1,3) missing from g


def _arcs_of(word):
    from shi_ish.core import arcs

    return arcs(position_partition(word))


@given(st.sampled_from(sorted(parking_functions(4))))
def test_dyck_roundtrip(word):
    path = word_to_dyck(word)
    check_labeled_dyck(path)
    assert dyck_to_word(path) == word


def test_word_to_dyck_rejects_non_parking():
    with pytest.raises(ValueError):
        word_to_dyck((2, 2))


def test_check_labeled_dyck_rejects_bad_paths():
    with pytest.raises(ValueError):
        check_labeled_dyck(((), (1, 2)))  # dips below the diagonal
    with pytest.raises(ValueError):
        check_labeled_dyck(((2, 1),))  # column not increasing
    with pytest.raises(ValueError):
        check_labeled_dyck(((1,), (1,)))  # labels not 1..n


def test_path_returns_and_prime_components():
    word = (3, 7, 3, 8, 2, 2, 7, 1, 2)
    path = word_to_dyck(word)
    assert path_returns(path) == (1, 6)
    comps = prime_components(path)
    assert [c.size for c in comps] == [1, 5, 3]
    assert [c.start for c in comps] == [1, 2, 7]
    assert [c.labels() for c in comps] == [(8,), (1, 3, 5, 6, 9), (2, 4, 7)]


def test_factorization_fixture():
    blocks, factors = factorize_parking((3, 7, 3, 8, 2, 2, 7, 1, 2))
    assert blocks == ((8,), (1, 3, 5, 6, 9), (2, 4, 7))
    assert factors == ((1,), (2, 2, 1, 1, 1), (1, 2, 1))
    assert all(is_prime_parking_function(f) for f in factors)


@given(st.sampled_from(sorted(parking_functions(4))))
def test_factorize_compose_roundtrip(word):
    blocks, factors = factorize_parking(word)
    assert compose_factors(blocks, factors) == word


def test_compose_factors_validates():
    with pytest.raises(ValueError):
        compose_factors(((1,),), ((1,), (1,)))
    with pytest.raises(ValueError):
        compose_factors(((1,), (3,)), ((1,), (1,)))
    with pytest.raises(ValueError):
        compose_factors(((1, 2),), ((1,),))


def test_shuffle_compose_fixture():
    # interleave (1,) and (2,1,1) on positions {2} and {1,3,4}
    got = shuffle_compose((1,), (2, 1, 1), (2,), (1, 3, 4))
    assert got == (3, 1, 2, 2)
    with pytest.raises(ValueError):
        shuffle_compose((1,), (1,), (1,), (3,))


@pytest.mark.parametrize("n", range(1, 5))
def test_prime_words_are_the_one_component_words(n):
    for word in parking_functions(n):
        one_piece = len(prime_components(word_to_dyck(word))) == 1
        assert one_piece == is_prime_parking_function(word)


# ---------------------------------------------------------------------------
# the float-free parking test


def diagonal_parking_test(word):
    """``_is_parking`` as counted over the word's blocks, the rule the
    region statistics read."""
    return parking._diagonal_touches(_region_scan(word, None)[0], len(word)) is not None


@pytest.mark.parametrize("n", range(1, 7))
def test_is_parking_is_the_circular_lot_on_every_word(n):
    """On [n+1]^n a word parks exactly when Pollak's circular lot leaves
    spot n + 1 empty."""
    parks = 0
    for word in itertools.product(range(1, n + 2), repeat=n):
        park = parking._is_parking(word)
        assert park == (pollak_empty_spot(word) == n + 1), word
        parks += park
    assert parks == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_is_parking_refuses_letters_off_the_alphabet(n):
    """A letter 0, negative, n + 1 or huge in place of any letter of any
    parking function of size n gives a word that is no parking function,
    also where the rest of its sorted letters keep a_i <= i."""
    for word in parking_functions(n):
        for bad in (0, -1, -(n * n), n + 1, 10**20):
            for at in range(n):
                changed = word[:at] + (bad,) + word[at + 1 :]
                assert not parking._is_parking(changed), changed
                assert not diagonal_parking_test(changed), changed


@pytest.mark.parametrize("n", [16, 32, 64])
def test_is_parking_on_seeded_orbits(n):
    """Every shift of seeded words over [n+1]: one in each orbit parks."""
    rng = random.Random(n)
    for _ in range(40):
        word = tuple(rng.randint(1, n + 1) for _ in range(n))
        shifts = orbit(word, n + 1)
        parks = [parking._is_parking(w) for w in shifts]
        assert parks == [pollak_empty_spot(w) == n + 1 for w in shifts], word
        assert parks == [diagonal_parking_test(w) for w in shifts], word
        assert sum(parks) == 1, word
