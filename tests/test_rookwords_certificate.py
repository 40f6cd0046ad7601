"""The counted orbit certificate against the scan it replaced.

``scan_certificate`` is the earlier ``orbit_certificate``: it builds every
cyclic shift of the word and tests each one with both predicates.  The
counted certificate must name the same shifts on every word of [n+1]^n and
[n-1]^n for n <= 6 and on seeded words at n = 8, 16 and 64, and it must keep
refusing an orbit whose counts are not exactly one of each.  The parking
shifts are also checked against their first formulation, from prefix minima
built with ``itertools.accumulate``.
"""

import itertools
import math
import random
import sys

import pytest

from shi_ish import core, parking, rookwords, verify
from shi_ish.core import orbit
from shi_ish.parking import is_parking_function, is_prime_parking_function
from shi_ish.rookwords import OrbitCertificate, is_prime_rook_word, is_rook_word, orbit_certificate


def scan_certificate(word, prime=False):
    """(parking_index, rook_index, shifts) by testing every shift."""
    n = len(word)
    m = max(1, n - 1) if prime else n + 1
    shifts = orbit(word, m)
    is_park = is_prime_parking_function if prime else is_parking_function
    is_rook = is_prime_rook_word if prime else is_rook_word
    park_hits = [t for t, w in enumerate(shifts) if is_park(w)]
    rook_hits = [t for t, w in enumerate(shifts) if is_rook(w)]
    assert len(park_hits) == 1 and len(rook_hits) == 1, word
    return park_hits[0], rook_hits[0], shifts


def assert_agrees(word, prime, scanned=None):
    parking_index, rook_index, shifts = scanned or scan_certificate(word, prime)
    cert = orbit_certificate(word, prime=prime)
    assert (cert.parking_index, cert.rook_index) == (parking_index, rook_index), (word, prime)
    assert cert.shifts == shifts
    assert (cert.parking, cert.rook) == (shifts[parking_index], shifts[rook_index])
    assert (cert.word, cert.alphabet, cert.prime) == (tuple(word), len(shifts), prime)


def assert_agrees_on_every_word(n, prime):
    """Scan each orbit once, from its word starting with 1, and compare
    every word of the orbit: the scan of the shift by k is the scan of the
    orbit rotated by k."""
    m = max(1, n - 1) if prime else n + 1
    words = 0
    for rest in itertools.product(range(1, m + 1), repeat=n - 1):
        parking_index, rook_index, shifts = scan_certificate((1,) + rest, prime)
        for k, word in enumerate(shifts):
            rotated = shifts[k:] + shifts[:k]
            assert_agrees(word, prime, ((parking_index - k) % m, (rook_index - k) % m, rotated))
            words += 1
    assert words == m**n


@pytest.mark.parametrize("n", range(1, 7))
def test_every_word_over_n_plus_one(n):
    assert_agrees_on_every_word(n, prime=False)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_word_over_n_minus_one(n):
    assert_agrees_on_every_word(n, prime=True)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_seeded_words(n):
    rng = random.Random(n)
    for _ in range(300):
        assert_agrees(tuple(rng.randint(1, n + 1) for _ in range(n)), prime=False)
        assert_agrees(tuple(rng.randint(1, n - 1) for _ in range(n)), prime=True)


def accumulated_parking_shifts(counts, bar):
    """``rookwords._parking_shifts`` as first written: the levels, their
    prefix minima and their suffix minima as accumulated lists."""
    m = len(counts)
    level = list(itertools.accumulate((c - 1 for c in counts[:-1]), initial=0))
    total = sum(counts) - m
    before = list(itertools.accumulate(level[:-1], min, initial=math.inf))
    after = list(itertools.accumulate(reversed(level[1:]), min, initial=math.inf))[::-1]
    return [
        -s % m
        for s, low, head, tail in zip(range(m), level, before, after)
        if tail - low >= bar and head + total - low >= bar
    ]


def count_vectors(total, m):
    """Every vector of m nonnegative counts summing to ``total``."""
    for bars in itertools.combinations(range(total + m - 1), m - 1):
        edges = (-1,) + bars + (total + m - 1,)
        yield [b - a - 1 for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("m", range(1, 8))
def test_parking_shifts_are_the_accumulated_formulation(m):
    """Every count vector over [m] of a word of length m - 1 (bar 0, the
    plain orbit) or m + 1 (bar 1, the prime orbit)."""
    checked = 0
    for bar, total in ((0, m - 1), (1, m + 1)):
        for counts in count_vectors(total, m):
            assert rookwords._parking_shifts(counts, bar) == accumulated_parking_shifts(counts, bar), (counts, bar)
            checked += 1
    assert checked == math.comb(2 * m - 2, m - 1) + math.comb(2 * m, m - 1)


@pytest.mark.parametrize("prime", [False, True])
def test_a_second_parking_shift_is_refused(prime, monkeypatch):
    monkeypatch.setattr(rookwords, "_parking_shifts", lambda counts, bar: [0, 1])
    with pytest.raises(ValueError, match="has 2 parking functions and 1 rook words"):
        orbit_certificate((1, 2, 2, 1), prime=prime)


def test_a_missing_rook_shift_is_refused(monkeypatch):
    monkeypatch.setattr(rookwords, "_rook_shifts", lambda counts, first: [])
    with pytest.raises(ValueError, match="has 1 parking functions and 0 rook words"):
        orbit_certificate((1, 2, 2, 1))


@pytest.mark.parametrize("counter", ["_parking_shifts", "_rook_shifts"])
def test_a_wrong_member_fails_the_substitution_check(counter, monkeypatch):
    word = (1, 4, 4, 2, 5)  # the rook word of its orbit; its shift by 3 is the parking function
    real = getattr(rookwords, counter)
    monkeypatch.setattr(rookwords, counter, lambda *args: [(real(*args)[0] + 1) % 6])
    with pytest.raises(AssertionError, match="names a wrong member"):
        orbit_certificate(word)


def test_a_wrong_prime_member_fails_the_substitution_check(monkeypatch):
    word = (1, 2, 2)  # its prime parking function is its shift by 1, (2, 1, 1)
    monkeypatch.setattr(rookwords, "_parking_shifts", lambda counts, bar: [0])
    with pytest.raises(AssertionError, match="names a wrong member"):
        orbit_certificate(word, prime=True)


def test_the_certificate_calls_no_public_predicate(monkeypatch):
    """The members are shifts of a word ``check_word`` has validated, so
    they are checked through the float-free cores, not the predicates."""
    calls = []
    for module in (rookwords, parking):
        for name in ("is_parking_function", "is_prime_parking_function", "is_rook_word", "is_prime_rook_word"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda word, name=name: calls.append(name))
    certified = 0
    for n in range(1, 6):
        for prime in (False, True):
            m = max(1, n - 1) if prime else n + 1
            for word in itertools.product(range(1, m + 1), repeat=n):
                try:
                    orbit_certificate(word, prime=prime)
                except ValueError:
                    continue
                certified += 1
    assert certified > 0
    assert calls == []


@pytest.mark.parametrize("word", [(), (0, 1), (1, 5, 1), (1, 2.0)])
def test_words_off_the_alphabet_are_refused(word):
    with pytest.raises(ValueError):
        orbit_certificate(word)


# ---------------------------------------------------------------------------
# the record


def test_the_record_keeps_its_fields_and_its_order():
    cert = orbit_certificate((1, 4, 4, 2, 5))
    fields = ("word", "alphabet", "prime", "parking_index", "rook_index", "parking", "rook")
    assert OrbitCertificate._fields == fields
    assert tuple(cert) == ((1, 4, 4, 2, 5), 6, False, 3, 0, (4, 1, 1, 5, 2), (1, 4, 4, 2, 5))
    assert tuple(getattr(cert, name) for name in fields) == tuple(cert)
    assert repr(cert) == (
        "OrbitCertificate(word=(1, 4, 4, 2, 5), alphabet=6, prime=False, parking_index=3,"
        " rook_index=0, parking=(4, 1, 1, 5, 2), rook=(1, 4, 4, 2, 5))"
    )


@pytest.mark.parametrize("word, prime", [((1, 4, 4, 2, 5), False), ((2, 1, 3, 3), True)])
def test_the_record_lists_its_orbit_and_is_immutable(word, prime):
    cert = orbit_certificate(word, prime=prime)
    assert cert.shifts == orbit(word, cert.alphabet)
    assert (cert.shifts[cert.parking_index], cert.shifts[cert.rook_index]) == (cert.parking, cert.rook)
    for name in ("word", "parking", "shifts", "elsewhere"):
        with pytest.raises(AttributeError):
            setattr(cert, name, ())
    again = orbit_certificate(list(word), prime=prime)
    assert again == cert and hash(again) == hash(cert)
    assert again == tuple(cert)  # a certificate is a tuple of its fields


# ---------------------------------------------------------------------------
# the cycle-lemma suite


def test_the_cycle_lemma_suite_pays_no_float_test(monkeypatch):
    """The suite's certificate members are shifts of a word the certificate
    has checked with ``check_word``, so ``beta`` compares their position
    partitions through the float-free core: the letter test
    ``_check_int_letters`` runs not once, wherever a module binds it."""
    calls = []
    check = core._check_int_letters

    def counting(word):
        calls.append(word)
        return check(word)

    for name, module in list(sys.modules.items()):
        if (name == "shi_ish" or name.startswith("shi_ish.")) and getattr(module, "_check_int_letters", None) is check:
            monkeypatch.setattr(module, "_check_int_letters", counting)
    passed, report = verify._suite_cycle_lemma(4, False)
    assert passed and [c["name"] for c in report["checks"]][1] == "beta preserves position partitions"
    assert calls == []
    # the counter is live: the public partition still tests its letters
    core.position_partition((1, 2))
    assert calls == [(1, 2)]
