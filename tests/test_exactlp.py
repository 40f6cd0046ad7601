"""Exact rational feasibility solver."""

import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shi_ish.exactlp import _check_slack, _optimum, difference_feasible, max_slack, strict_feasible


def slack_of(row, point):
    coeffs, rhs, _ = row
    return sum(Fraction(a) * x for a, x in zip(coeffs, point)) - rhs


def satisfies(rows, point):
    for row in rows:
        s = slack_of(row, point)
        if row[2] and s <= 0:
            return False
        if not row[2] and s < 0:
            return False
    return True


class OffsetUnionFind:
    """Union-find over variables related by differences x_i - x_j = c."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.offset = [0] * n  # x_i = x_root + offset_i

    def resolve(self, x: int) -> tuple[int, int]:
        root = x
        total = 0
        while self.parent[root] != root:
            total += self.offset[root]
            root = self.parent[root]
        # path compression with accumulated offsets
        node = x
        acc = total
        while self.parent[node] != node:
            nxt = self.parent[node]
            step = self.offset[node]
            self.parent[node] = root
            self.offset[node] = acc
            acc -= step
            node = nxt
        return root, total

    def merge(self, i: int, j: int, c: int) -> bool:
        """Impose x_i - x_j = c; False on contradiction."""
        ri, oi = self.resolve(i)
        rj, oj = self.resolve(j)
        if ri == rj:
            return oi - oj == c
        self.parent[rj] = ri
        self.offset[rj] = oi - c - oj
        return True


def strict_witness(rows, n):
    """The simplex witness ``X / den`` as rationals, or None; ``(X, den)``
    is in lowest terms."""
    result = strict_feasible(rows, n)
    if result is None:
        return None
    scaled, den = result
    assert den > 0 and math.gcd(den, *scaled) == 1
    return tuple(Fraction(x, den) for x in scaled)


def simplex_with_equalities(rows, n_vars, equalities):
    """Simplex reference for strict/weak rows plus difference equalities
    ``(i, j, c)`` pinning x_i - x_j = c: the equalities are eliminated by
    substitution and :func:`strict_feasible` solves the reduced rows.

    A substituted weak row can get a positive bound, which the capped
    simplex refuses with ValueError even when the system is feasible.
    """
    uf = OffsetUnionFind(n_vars)
    for i, j, c in equalities:
        if not uf.merge(i, j, c):
            return None
    roots = sorted({uf.resolve(k)[0] for k in range(n_vars)})
    col = {r: t for t, r in enumerate(roots)}
    reduced = []
    for coeffs, rhs, strict in rows:
        acc = [0] * len(roots)
        shift = 0
        for k, a in enumerate(coeffs):
            if a:
                root, off = uf.resolve(k)
                acc[col[root]] += a
                shift += a * off
        bound = rhs - shift
        if any(acc):
            reduced.append((tuple(acc), bound, strict))
        elif (strict and bound >= 0) or (not strict and bound > 0):
            return None
    reduced_witness = strict_witness(reduced, len(roots))
    if reduced_witness is None:
        return None
    witness = []
    for k in range(n_vars):
        root, off = uf.resolve(k)
        witness.append(reduced_witness[col[root]] + off)
    return tuple(witness)


def _exact_div(num, den):
    q, rem = divmod(num, den)
    assert not rem, "fraction-free pivot produced a non-integer"
    return q


def fraction_free_max_slack(rows, n_vars):
    """Reference for :func:`max_slack`: the same program and Bland's rule on
    the full s | u | v | w tableau with the integer-preserving
    (fraction-free) update, all rows sharing one determinant."""
    for coeffs, rhs, strict in rows:
        if len(coeffs) != n_vars:
            raise ValueError("row length does not match the variable count")
        if not strict and rhs > 0:
            raise ValueError("weak rows must have nonpositive bounds")

    m = len(rows)
    n_cols = 1 + 2 * n_vars + m
    w0 = 1 + 2 * n_vars

    strict_idx = [i for i, row in enumerate(rows) if row[2]]
    bounds = [rhs + 1 if strict else rhs for _, rhs, strict in rows]
    if not strict_idx or max(bounds[i] for i in strict_idx) <= 0:
        return Fraction(1), tuple(Fraction(0) for _ in range(n_vars))
    start = max(strict_idx, key=lambda i: bounds[i])

    table = []
    for i, (coeffs, _, strict) in enumerate(rows):
        row = [0] * (n_cols + 1)
        row[0] = -1 if strict else 0
        for k, a in enumerate(coeffs):
            row[1 + k] = -a
            row[1 + n_vars + k] = a
        row[w0 + i] = 1
        row[n_cols] = -bounds[i]
        table.append(row)
    obj = [0] * (n_cols + 1)
    obj[0] = 1
    basis = [w0 + i for i in range(m)]
    det = 1

    row = [0] * (n_cols + 1)
    row[0] = 1
    for k, a in enumerate(rows[start][0]):
        row[1 + k] = a
        row[1 + n_vars + k] = -a
    row[w0 + start] = -1
    row[n_cols] = bounds[start]
    table[start] = row
    for i in range(m):
        if i != start and rows[i][2]:
            table[i] = [x + y for x, y in zip(table[i], row)]
    obj = [x - y for x, y in zip(obj, row)]
    basis[start] = 0

    while True:
        enter = next((j for j in range(n_cols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if table[i][enter] <= 0:
                continue
            if leave is None:
                leave = i
                continue
            lhs = table[i][n_cols] * table[leave][enter]
            rhs = table[leave][n_cols] * table[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        assert leave is not None, "capped slack program cannot be unbounded"
        pivot = table[leave][enter]
        new_rows = []
        for i in range(m):
            if i == leave:
                new_rows.append(table[i])
                continue
            factor = table[i][enter]
            new_rows.append(
                [_exact_div(pivot * x - factor * y, det) for x, y in zip(table[i], table[leave])]
            )
        factor = obj[enter]
        obj = [_exact_div(pivot * x - factor * y, det) for x, y in zip(obj, table[leave])]
        table = new_rows
        basis[leave] = enter
        det = pivot

    values = {}
    for i in range(m):
        values[basis[i]] = Fraction(table[i][n_cols], det)
    s_value = values.get(0, Fraction(0))
    witness = tuple(
        values.get(1 + k, Fraction(0)) - values.get(1 + n_vars + k, Fraction(0))
        for k in range(n_vars)
    )
    return Fraction(1) - s_value, witness


# ---------------------------------------------------------------------------
# direct cases


def test_opposite_strict_inequalities_are_infeasible():
    # x1 - x2 > 0 and x2 - x1 > 0
    rows = [((1, -1), 0, True), ((-1, 1), 0, True)]
    assert strict_feasible(rows, 2) is None


def test_dominant_shi_chamber_is_feasible():
    # x1 > x2 > x3 with both gaps below 1: the all-positive Shi(3) chamber
    rows = [
        ((1, -1, 0), 0, True),
        ((0, 1, -1), 0, True),
        ((-1, 0, 1), -1, True),
        ((-1, 1, 0), -1, True),
        ((0, -1, 1), -1, True),
        ((1, 0, -1), 0, True),
    ]
    witness = strict_witness(rows, 3)
    assert witness is not None
    assert satisfies(rows, witness)


def test_contradictory_gap_requirements_are_infeasible():
    # x1 > x2 > x3, x1 - x3 < 1 but x1 - x2 > 1
    rows = [
        ((1, -1, 0), 1, True),
        ((0, 1, -1), 0, True),
        ((-1, 0, 1), -1, True),
    ]
    assert strict_feasible(rows, 3) is None


def test_unconstrained_origin_shortcut():
    # every strict bound negative: the origin works without any pivoting
    tau, witness = max_slack([((1, 1), -5, True)], 2)
    assert tau == 1
    assert witness == (0, 0)


def test_weak_rows_must_have_nonpositive_bounds():
    with pytest.raises(ValueError):
        max_slack([((1, 0), 1, False)], 2)
    with pytest.raises(ValueError):
        max_slack([((1, 0, 0), 0, True)], 2)  # length mismatch


def test_weak_rows_constrain_the_witness():
    rows = [((1, -1), -2, True), ((-1, 0), 0, False), ((0, 1), 0, False)]
    witness = strict_witness(rows, 2)
    assert witness is not None
    assert witness[0] <= 0 <= witness[1]
    assert witness[0] - witness[1] > -2


def test_slack_is_capped_at_one():
    tau, _ = max_slack([((1,), 0, True)], 1)
    assert tau == Fraction(1)


# ---------------------------------------------------------------------------
# equalities


def test_equalities_substitute_before_solving():
    # x0 - x1 = 1 exactly, x0 > x2, x2 > x1: forces x2 inside a unit gap
    rows = [((1, 0, -1), 0, True), ((0, -1, 1), 0, True)]
    witness = simplex_with_equalities(rows, 3, [(0, 1, 1)])
    assert witness is not None
    assert witness[0] - witness[1] == 1
    assert witness[1] < witness[2] < witness[0]


def test_contradictory_equalities_return_none():
    rows = [((1, -1), -10, True)]
    assert simplex_with_equalities(rows, 2, [(0, 1, 0), (0, 1, 1)]) is None
    # cycles must be consistent too
    assert (
        simplex_with_equalities(
            [((1, 0, 0), -10, True)],
            3,
            [(0, 1, 1), (1, 2, 1), (0, 2, 3)],
        )
        is None
    )
    assert (
        simplex_with_equalities(
            [((1, 0, 0), -10, True)],
            3,
            [(0, 1, 1), (1, 2, 1), (0, 2, 2)],
        )
        is not None
    )


def test_equality_can_kill_a_strict_row():
    # x0 - x1 = 1 contradicts x1 - x0 > 0 outright
    rows = [((-1, 1), 0, True)]
    assert simplex_with_equalities(rows, 2, [(0, 1, 1)]) is None
    # ... and satisfies x0 - x1 > 0 outright (constant row dropped)
    rows = [((1, -1), 0, True)]
    witness = simplex_with_equalities(rows, 2, [(0, 1, 1)])
    assert witness is not None
    assert witness[0] - witness[1] == 1


# ---------------------------------------------------------------------------
# properties

coeff = st.integers(-4, 4)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.lists(coeff, min_size=n, max_size=n),
                st.integers(-6, 6),
            ),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=200)
def test_soundness_witness_satisfies_all_rows(raw):
    rows = [(tuple(c), rhs, True) for c, rhs in raw]
    n = len(rows[0][0])
    witness = strict_witness(rows, n)
    if witness is not None:
        assert satisfies(rows, witness)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.fractions(min_value=-3, max_value=3), min_size=n, max_size=n),
            st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=1, max_size=6),
        )
    )
)
@settings(max_examples=200)
def test_completeness_planted_point_is_found(planted_and_coeffs):
    """Plant a rational point, generate rows it strictly satisfies; the
    solver must then report feasibility."""
    planted, coeff_lists = planted_and_coeffs
    rows = []
    for coeffs in coeff_lists:
        value = sum(Fraction(a) * x for a, x in zip(coeffs, planted))
        # an integer bound strictly below the planted value
        bound = math.floor(value) - 1
        rows.append((tuple(coeffs), bound, True))
    n = len(planted)
    witness = strict_witness(rows, n)
    assert witness is not None
    assert satisfies(rows, witness)


# ---------------------------------------------------------------------------
# difference-constraint solver


def difference_witness(rows, n, equalities=()):
    """The solver's witness as rationals, or None."""
    result = difference_feasible(rows, n, equalities)
    if result is None:
        return None
    scaled, den = result
    assert den == n + 1
    return tuple(Fraction(x, den) for x in scaled)


def diff(n, a, b):
    coeffs = [0] * n
    coeffs[a] += 1
    coeffs[b] -= 1
    return tuple(coeffs)


def test_difference_dominant_shi_chamber_is_feasible():
    rows = [
        ((1, -1, 0), 0, True),
        ((0, 1, -1), 0, True),
        ((-1, 0, 1), -1, True),
        ((-1, 1, 0), -1, True),
        ((0, -1, 1), -1, True),
        ((1, 0, -1), 0, True),
    ]
    witness = difference_witness(rows, 3)
    assert witness is not None
    assert satisfies(rows, witness)


def test_difference_contradictory_cycles_are_infeasible():
    assert difference_feasible([((1, -1), 0, True), ((-1, 1), 0, True)], 2) is None
    # x0 > x1 > x2 > x0
    cycle = [(diff(3, 0, 1), 0, True), (diff(3, 1, 2), 0, True), (diff(3, 2, 0), 0, True)]
    assert difference_feasible(cycle, 3) is None
    # x1 > x2, x0 - x2 < 1, x0 - x1 > 1
    gaps = [((1, -1, 0), 1, True), ((0, 1, -1), 0, True), ((-1, 0, 1), -1, True)]
    assert difference_feasible(gaps, 3) is None


def test_difference_weak_cycles_need_positive_weight_to_fail():
    # x0 >= x1 >= x0 is the line x0 = x1; one strict link breaks it
    weak = [((1, -1), 0, False), ((-1, 1), 0, False)]
    witness = difference_witness(weak, 2)
    assert witness is not None and witness[0] == witness[1]
    assert difference_feasible([((1, -1), 0, False), ((-1, 1), 0, True)], 2) is None
    # x0 - x1 >= 1 and x1 - x0 >= -1 pin the gap at exactly 1
    pinned = [((1, -1), 1, False), ((-1, 1), -1, False)]
    witness = difference_witness(pinned, 2)
    assert witness is not None and witness[0] - witness[1] == 1
    assert difference_feasible([((1, -1), 1, False), ((-1, 1), -1, True)], 2) is None


def test_difference_equalities():
    rows = [((1, 0, -1), 0, True), ((0, -1, 1), 0, True)]
    witness = difference_witness(rows, 3, equalities=[(0, 1, 1)])
    assert witness is not None
    assert witness[0] - witness[1] == 1
    assert witness[1] < witness[2] < witness[0]
    # an equality contradicting a strict row, or satisfying it outright
    assert difference_feasible([((-1, 1), 0, True)], 2, equalities=[(0, 1, 1)]) is None
    witness = difference_witness([((1, -1), 0, True)], 2, equalities=[(0, 1, 1)])
    assert witness is not None and witness[0] - witness[1] == 1


def test_difference_contradictory_equalities_return_none():
    row = [((1, -1, 0), -10, True)]
    assert difference_feasible(row, 3, equalities=[(0, 1, 0), (0, 1, 1)]) is None
    assert difference_feasible(row, 3, equalities=[(0, 1, 1), (1, 2, 1), (0, 2, 3)]) is None
    witness = difference_witness(row, 3, equalities=[(0, 1, 1), (1, 2, 1), (0, 2, 2)])
    assert witness is not None
    assert (witness[0] - witness[1], witness[1] - witness[2]) == (1, 1)
    assert difference_feasible([], 1, equalities=[(0, 0, 1)]) is None
    assert difference_witness([], 1, equalities=[(0, 0, 0)]) == (0,)


@pytest.mark.parametrize(
    "coeffs, n",
    [((1, 1), 2), ((2, -2), 2), ((1, 0), 2), ((0, 0), 2), ((1, -1, 0), 2), ((1, -1, 1), 3)],
)
def test_difference_rejects_non_difference_rows(coeffs, n):
    with pytest.raises(ValueError):
        difference_feasible([(coeffs, 0, True)], n)


def difference_systems(max_n=6, eq_offsets=st.integers(-2, 2)):
    """(n, rows, equalities) with strict rows, weak rows and equalities."""

    def build(n):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        strict = st.tuples(pair, st.integers(-3, 3), st.just(True))
        weak = st.tuples(pair, st.integers(-3, 0), st.just(False))
        rows = st.lists(st.one_of(strict, weak), max_size=8).map(
            lambda raw: [(diff(n, a, b), rhs, s) for (a, b), rhs, s in raw]
        )
        eqs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), eq_offsets), max_size=2)
        return st.tuples(st.just(n), rows, eqs)

    return st.integers(2, max_n).flatmap(build)


@given(difference_systems())
@settings(max_examples=200, deadline=None)
def test_difference_agrees_with_simplex(system):
    n, rows, equalities = system
    try:
        simplex = simplex_with_equalities(rows, n, equalities)
    except ValueError:
        # a substituted weak row got a positive bound, which the capped
        # simplex does not accept
        assume(False)
    witness = difference_witness(rows, n, equalities)
    assert (witness is None) == (simplex is None)
    if witness is not None:
        assert satisfies(rows, witness)
        assert all(witness[i] - witness[j] == c for i, j, c in equalities)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-12, 12), min_size=n, max_size=n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                min_size=1,
                max_size=10,
            ),
        )
    )
)
@settings(max_examples=200)
def test_difference_planted_point_is_found(planted_and_rows):
    """Plant a point with quarter-integer coordinates and generate difference
    rows and equalities it satisfies; the solver must find a witness."""
    numerators, raw = planted_and_rows
    planted = [Fraction(k, 4) for k in numerators]
    n = len(planted)
    rows, equalities = [], []
    for a, b, strict in raw:
        gap = planted[a] - planted[b]
        if a != b:
            rows.append((diff(n, a, b), math.ceil(gap) - 1 if strict else math.floor(gap), strict))
        if gap.denominator == 1:
            equalities.append((a, b, int(gap)))
    witness = difference_witness(rows, n, equalities)
    assert witness is not None
    assert satisfies(rows, witness)
    assert all(witness[i] - witness[j] == c for i, j, c in equalities)


# ---------------------------------------------------------------------------
# the per-row-scaled simplex against the fraction-free reference


def general_systems():
    """(n, rows): integer rows on n <= 6 variables, at most 10 of them,
    strict rows and weak rows with a nonpositive bound."""

    def build(n):
        coeffs = st.lists(coeff, min_size=n, max_size=n).map(tuple)
        strict = st.tuples(coeffs, st.integers(-6, 6), st.just(True))
        weak = st.tuples(coeffs, st.integers(-6, 0), st.just(False))
        return st.tuples(st.just(n), st.lists(st.one_of(strict, weak), min_size=1, max_size=10))

    return st.integers(1, 6).flatmap(build)


@given(st.one_of(general_systems(), difference_systems().map(lambda system: system[:2])))
@settings(max_examples=500, deadline=None)
def test_max_slack_equals_the_fraction_free_reference(system):
    """Same pivot rule, same bases: the same (tau, witness), exactly."""
    n, rows = system
    tau, witness = max_slack(rows, n)
    assert (tau, witness) == fraction_free_max_slack(rows, n)
    assert all(type(x) is Fraction for x in (tau, *witness))


@given(st.one_of(general_systems(), difference_systems().map(lambda system: system[:2])))
@settings(max_examples=300, deadline=None)
def test_strict_feasible_is_the_max_slack_witness_in_integers(system):
    """None exactly when tau <= 0; otherwise the integer witness over its
    least denominator is ``max_slack``'s witness."""
    n, rows = system
    tau, witness = max_slack(rows, n)
    result = strict_feasible(rows, n)
    assert (result is None) == (tau <= 0)
    if result is not None:
        scaled, den = result
        assert all(type(x) is int for x in (*scaled, den))
        # Fraction(x, den) for each x, with (X, den) in lowest terms
        assert strict_witness(rows, n) == witness


def max_slack_eliminations(rows, n_vars):
    """``max_slack(rows, n_vars)`` and how many row updates of the pivot loop
    of :func:`_optimum` took each branch: ``"unit"`` (pivot entry 1, only
    the pivot row's nonzero entries updated) and ``"scaled"`` (the whole row
    recomputed).  Counted by tracing the lines ``_optimum`` runs: every
    update first clears the row's entering slot."""
    source, first = inspect.getsourcelines(_optimum)
    text = {first + k: line.strip() for k, line in enumerate(source)}
    ran = []

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.append(text[frame.f_lineno])
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code is _optimum.__code__ else None

    previous = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        result = max_slack(rows, n_vars)
    finally:
        sys.settrace(previous)
    updates = ran.count("row[slot] = 0")
    scaled = sum(line.startswith("row = [leave_entry * x") for line in ran)
    return result, {"unit": updates - scaled, "scaled": scaled}


@pytest.mark.parametrize(
    "rows, n, branches",
    [
        # a difference system: every pivot entry is 1
        ([((1, -1), 0, True), ((-1, 1), -3, True)], 2, {"unit"}),
        # -2 x0 - x1 > 0 and x0 > 0: pivots with entry 1 and with entry 2
        ([((-2, -1), 0, True), ((1, 0), 0, True)], 2, {"unit", "scaled"}),
        ([((3, -2, 0), 1, True), ((0, 2, -3), 1, True), ((-1, 0, 1), 0, True)], 3, {"scaled"}),
    ],
)
def test_both_elimination_branches_equal_the_reference(rows, n, branches):
    """The sparse update for a unit pivot and the full update otherwise
    give the reference's (tau, witness) exactly."""
    result, counts = max_slack_eliminations(rows, n)
    assert {branch for branch, count in counts.items() if count} == branches
    assert result == fraction_free_max_slack(rows, n)


def check_slack(rows, tau, witness):
    """:func:`_check_slack` on rationals, scaled to integers over their
    least common denominator."""
    den = math.lcm(tau.denominator, *(x.denominator for x in witness))
    _check_slack(rows, int(tau * den), [int(x * den) for x in witness], den)


def tight_rows(rows, tau, witness):
    """Rows whose slack at the witness is exactly the bound the check asks
    for (tau for strict rows, 0 for weak rows), with a nonzero coefficient."""
    return [
        row
        for row in rows
        if any(row[0]) and slack_of(row, witness) == (tau if row[2] else 0)
    ]


def assert_check_refuses_tight_rows_moved_off(rows, n):
    """The optimum passes the check; moving one coordinate of the witness by
    1/den against any tight row fails it.  Returns the number of rows moved."""
    tau, witness = max_slack(rows, n)
    check_slack(rows, tau, witness)
    den = math.lcm(tau.denominator, *(x.denominator for x in witness))
    tight = tight_rows(rows, tau, witness)
    for coeffs, _, _ in tight:
        k = next(k for k, a in enumerate(coeffs) if a)
        moved = list(witness)
        moved[k] -= Fraction(1 if coeffs[k] > 0 else -1, den)
        with pytest.raises(ArithmeticError):
            check_slack(rows, tau, moved)
    return len(tight)


def test_check_slack_refuses_a_witness_moved_off_by_one_over_den():
    # x0 - x1 > 0, x1 - x0 > -3 and x1 >= 0: the gap is 1 and x1 = 0, so
    # the first and the weak row are tight
    rows = [((1, -1), 0, True), ((-1, 1), -3, True), ((0, 1), 0, False)]
    assert assert_check_refuses_tight_rows_moved_off(rows, 2) == 2
    tau, witness = max_slack(rows, 2)
    with pytest.raises(ArithmeticError):
        check_slack(rows, tau + 1, witness)
    # a capped optimum below 1: x0 > x1 and x1 - x0 > -1 leave a gap of 1/2
    rows = [((1, -1), 0, True), ((-1, 1), -1, True)]
    tau, witness = max_slack(rows, 2)
    assert tau == Fraction(1, 2)
    assert assert_check_refuses_tight_rows_moved_off(rows, 2) == 2


@given(general_systems())
@settings(max_examples=200, deadline=None)
def test_check_slack_refuses_every_tight_row_moved_off(system):
    n, rows = system
    assert_check_refuses_tight_rows_moved_off(rows, n)
