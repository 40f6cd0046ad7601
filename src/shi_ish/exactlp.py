"""Exact rational linear feasibility for open polyhedra.

Regions of a hyperplane arrangement are open sets cut out by strict
inequalities a.x > b with integer data.  Strict feasibility is decided by
maximizing the minimum slack tau = min_i (a_i.x - b_i) capped at 1: the
region is nonempty exactly when the optimum is positive, and the optimizer
is a rational interior witness.

The cap keeps the program bounded: substituting tau = 1 - s with s >= 0
turns it into minimizing s subject to a_i.x + s >= b_i + 1, which a primal
simplex solves without a separate feasibility phase (pivoting s into the
most violated row makes the starting basis feasible).  Bland's rule
guarantees termination and picks the same bases in any exact arithmetic.
The simplex runs in dictionary form (Chvatal, Linear Programming, 1983,
ch. 2): a row holds only its nonbasic columns, its right-hand side and its
basic entry, because a basic column is zero outside its own row.  With
x = u - v the column of v_k is minus the column of u_k, so only s, u and
the row slacks are stored, v_k is read off u_k, and n + 1 of them are
nonbasic.  Each row is exact and integer, kept up to its own positive scale
and reduced by its gcd, so a row whose entry in the entering column is 0 is
left as it is and no division is needed; with a pivot entry of 1 (most
pivots here) only the pivot row's nonzero entries are updated.  The
optimizer is read off in integers over one denominator and checked by
substitution before it is returned.

Rows are triples ``(coeffs, rhs, strict)``.  Strict rows participate in the
slack objective; weak rows (``strict=False``) only require a.x >= rhs and
must have rhs <= 0, which makes the s-pivot start feasible.  The package
passes the simplex strict rows only; weak rows exist for the tests' simplex
reference.

When every row is a difference x_a - x_b, :func:`difference_feasible`
decides the same question as a negative-cycle test and certifies its answer
either way: a witness checked by substitution, or a cycle whose summed
weight is checked to be negative.  It also takes difference equalities
x_i - x_j = c.  It parses its rows into weighted arcs and runs the
arc-level Bellman-Ford :func:`_arcs_feasible`.  No command calls it yet:
it is the tests' reference for the oracle's split probes and for its
ceilings and degrees of freedom, and the solver that is to supply the
witnesses in place of the simplex.  The simplex has no equality mode: the
package calls it for the interior witness of each new region, and the
tests call it in their brute-force region sweep and read its optimum as
fractions.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

Row = tuple[Sequence[int], int, bool]
#: ``(u, v, value, eps)``: the difference bound x_v - x_u <= value + eps * epsilon
Arc = tuple[int, int, int, int]


def _check_slack(rows: Sequence[Row], tau: int, witness: Sequence[int], den: int) -> None:
    """Raise ArithmeticError unless every strict row has slack at least
    ``tau / den`` and every weak row slack at least 0 at ``witness / den``.

    The solver passes integers over their common denominator ``den``, so
    its check runs in integers.
    """
    for coeffs, rhs, strict in rows:
        slack = sum(map(operator.mul, coeffs, witness)) - rhs * den
        if slack < (tau if strict else 0):
            raise ArithmeticError("simplex witness violates a row")


def _optimum(rows: Sequence[Row], n_vars: int) -> tuple[int, tuple[int, ...], int]:
    """Maximize the minimum slack of the strict rows, capped at 1, as
    integers over one denominator: ``(T, X, den)`` for tau = T / den and
    the witness X / den.  Every strict row has slack at least tau at the
    witness and every weak row is satisfied; both are checked by
    substitution before they are returned.  The system of strict
    inequalities is solvable iff tau > 0.

    The dictionary drops only columns that are zero in every row but one,
    and zeros change no product, sum or gcd there, so every entry is the
    entry of the full tableau with s | u | w columns: the same reduced
    costs, the same ratios, the same Bland pivots and the same optimum."""
    for coeffs, rhs, strict in rows:
        if len(coeffs) != n_vars:
            raise ValueError("row length does not match the variable count")
        if not strict and rhs > 0:
            raise ValueError("weak rows must have nonpositive bounds")

    m = len(rows)
    strict_idx = [i for i, row in enumerate(rows) if row[2]]
    bounds = [rhs + 1 if strict else rhs for _, rhs, strict in rows]
    if not strict_idx or max(bounds[i] for i in strict_idx) <= 0:
        # x = 0 already has slack >= 1 on every strict row
        return 1, (0,) * n_vars, 1
    start = max(strict_idx, key=lambda i: bounds[i])

    # The program's columns are s | u_1..u_n | v_1..v_n | w_1..w_m with
    # x = u - v, numbered 0, 1.., 1+n.., 1+2n.. in that order; Bland's rule
    # and the ratio test's tie-break use those numbers.  The column of v_k
    # is minus the column of u_k, so at most one of them is basic and n + 1
    # of the stored columns s | u | w are nonbasic: a row holds those n + 1
    # slots, its right-hand side and its basic entry (the objective's is 0),
    # in <=-with-slack form  -sigma*s - a.u (+ a.v) + w_i = -beta_i.  Each
    # row is kept up to its own positive scale, reduced by its gcd: the value
    # of the basic variable of a row is its right-hand side over its basic
    # entry.  Pivoting s into the most violated row by hand leaves w_start in
    # slot 0 and every right-hand side nonnegative.
    w0 = 1 + 2 * n_vars
    rhs_at = n_vars + 1
    first = rows[start][0]
    table: list[list[int]] = []
    for i, (coeffs, _, strict) in enumerate(rows):
        if i == start:
            table.append([-1, *coeffs, bounds[start], 1])
        elif strict:
            table.append([-1, *map(operator.sub, first, coeffs), bounds[start] - bounds[i], 1])
        else:
            table.append([0, *(-a for a in coeffs), -bounds[i], 1])
    table.append([1, *(-a for a in first), -bounds[start], 0])
    # the program column of each slot; a u_k slot stands for v_k too
    slots = [w0 + start, *range(1, 1 + n_vars)]
    basis = [w0 + i for i in range(m)]
    basis[start] = 0

    while True:
        obj = table[m]
        # Bland's rule: the lowest program column with a negative reduced
        # cost; v_k's reduced cost is minus u_k's
        enter = None
        for q, j in enumerate(slots):
            if obj[q] > 0 and 0 < j <= n_vars:
                j += n_vars
            elif obj[q] >= 0:
                continue
            if enter is None or j < enter:
                enter, slot = j, q
        if enter is None:
            break
        sign = -1 if n_vars < enter < w0 else 1
        # ratio test; a row's scale cancels from its ratio
        leave = None
        leave_entry = 0
        for i in range(m):
            entry = sign * table[i][slot]
            if entry <= 0:
                continue
            if leave is not None:
                lhs = table[i][rhs_at] * leave_entry
                rhs = table[leave][rhs_at] * entry
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, leave_entry = i, entry
        if leave is None:
            raise AssertionError("capped slack program cannot be unbounded")
        # the leaving variable takes the entering slot: its column is its
        # row's basic entry (negated for v_k) there and 0 in every other row
        pivot = table[leave]
        out = basis[leave]
        pivot[slot] = -pivot[-1] if n_vars < out < w0 else pivot[-1]
        pivot[-1] = 0
        slots[slot] = out - n_vars if n_vars < out < w0 else out
        # with a unit pivot a row changes only where the pivot row is nonzero
        nonzero = [j for j, y in enumerate(pivot) if y] if leave_entry == 1 else None
        for i, row in enumerate(table):
            factor = sign * row[slot]
            if i == leave or not factor:
                continue
            row[slot] = 0
            if nonzero is None:
                row = [leave_entry * x - factor * y for x, y in zip(row, pivot)]
            else:
                for j in nonzero:
                    row[j] -= factor * pivot[j]
            g = math.gcd(*row)
            table[i] = [x // g for x in row] if g > 1 else row
        pivot[-1] = leave_entry
        basis[leave] = enter

    # only s, u and v (columns up to 2 * n_vars) are read
    basic = {j: (table[i][rhs_at], table[i][-1]) for i, j in enumerate(basis) if j < w0}
    den = math.lcm(*(entry for _, entry in basic.values()))
    values = {j: rhs * (den // entry) for j, (rhs, entry) in basic.items()}
    # at most one of u_k and v_k is basic: their columns are opposite
    witness = tuple(
        values[1 + k] if 1 + k in values else -values.get(1 + n_vars + k, 0)
        for k in range(n_vars)
    )
    tau = den - values.get(0, 0)
    _check_slack(rows, tau, witness, den)
    return tau, witness, den


def strict_feasible(rows: Sequence[Row], n_vars: int) -> Optional[tuple[tuple[int, ...], int]]:
    """Witness for a system of strict and weak inequalities, or None: the
    optimizer of :func:`_optimum` when its slack ``tau`` is positive.

    The witness comes back in the shape of :func:`difference_feasible`:
    ``(X, den)`` for the point ``X / den`` in lowest terms, checked by
    substitution in integers; no ``Fraction`` is built.

    >>> strict_feasible([((1, -1), 0, True), ((-1, 1), -3, True)], 2)
    ((1, 0), 1)
    >>> strict_feasible([((1, -1), 0, True), ((-1, 1), 0, True)], 2) is None
    True
    """
    tau, witness, den = _optimum(rows, n_vars)
    if tau <= 0:
        return None
    g = math.gcd(den, *witness)
    return tuple(x // g for x in witness), den // g


def _difference_arc(coeffs: Sequence[int], n_vars: int) -> tuple[int, int]:
    """``(a, b)`` for a coefficient vector equal to e_a - e_b."""
    if len(coeffs) != n_vars:
        raise ValueError("row length does not match the variable count")
    if coeffs.count(0) != n_vars - 2 or 1 not in coeffs or -1 not in coeffs:
        raise ValueError(f"row {tuple(coeffs)} is not a difference e_a - e_b")
    return coeffs.index(1), coeffs.index(-1)


def difference_feasible(
    rows: Sequence[Row],
    n_vars: int,
    equalities: Sequence[tuple[int, int, int]] = (),
) -> Optional[tuple[tuple[int, ...], int]]:
    """Certified feasibility of a difference-constraint system.

    Accepts the rows of :func:`strict_feasible`, restricted to coefficient
    vectors ``e_a - e_b``, plus equalities ``(i, j, c)`` meaning
    x_i - x_j = c.  A row x_a - x_b > rhs (or >= rhs when weak) is the arc
    a -> b of weight ``(-rhs, -1)`` (or ``(-rhs, 0)``) bounding x_b - x_a,
    where the second coordinate counts a symbolic epsilon; weights are
    compared lexicographically.  Bellman-Ford from a virtual source then
    either settles (CLRS 24.4) or exposes a negative cycle.

    Feasible systems return ``(X, den)``: the integer vector
    ``X = den * dist_value + dist_epsilon`` with ``den = n_vars + 1``, so the
    witness is ``X / den`` (epsilon = 1/den is small enough because a
    shortest path has fewer than n_vars arcs).  The witness is checked by
    substitution in integers before it is returned.  Infeasible systems
    return None after the weight of the negative cycle found is checked to
    be lexicographically negative, which refutes every epsilon > 0.

    >>> difference_feasible([((1, -1), 0, True), ((-1, 1), -3, True)], 2)
    ((0, -1), 3)
    >>> difference_feasible([((1, -1), 0, True)], 2, equalities=[(0, 1, 0)]) is None
    True
    """
    arcs: list[Arc] = []
    for coeffs, rhs, strict in rows:
        a, b = _difference_arc(coeffs, n_vars)
        arcs.append((a, b, -rhs, -1 if strict else 0))
    for i, j, c in equalities:
        arcs.append((j, i, c, 0))
        arcs.append((i, j, -c, 0))
    return _arcs_feasible(arcs, n_vars)


def _arcs_feasible(arcs: Sequence[Arc], n_vars: int) -> Optional[tuple[tuple[int, ...], int]]:
    """:func:`difference_feasible` on arcs ``(u, v, value, eps)``, each
    bounding x_v - x_u by ``value + eps * epsilon``, with the same witness,
    the same substitution check and the same negative-cycle check."""
    den = n_vars + 1
    value = [0] * n_vars
    eps = [0] * n_vars
    pred = [-1] * n_vars
    relaxed = -1
    for _ in range(n_vars):
        relaxed = -1
        for k, (u, v, w_value, w_eps) in enumerate(arcs):
            cand = value[u] + w_value
            if cand < value[v] or (cand == value[v] and eps[u] + w_eps < eps[v]):
                value[v] = cand
                eps[v] = eps[u] + w_eps
                pred[v] = k
                relaxed = v
        if relaxed < 0:
            break

    if relaxed < 0:
        witness = tuple(den * x + e for x, e in zip(value, eps))
        for u, v, w_value, w_eps in arcs:
            if witness[v] - witness[u] > den * w_value + w_eps:
                raise ArithmeticError("difference witness violates a constraint")
        return witness, den

    # still relaxing after n_vars rounds: walking predecessors n_vars times
    # from the last relaxed vertex lands on a cycle of the predecessor graph
    def pred_arc(x: int) -> Arc:
        if pred[x] < 0:
            raise AssertionError("predecessor walk left the relaxed vertices")
        return arcs[pred[x]]

    start = relaxed
    for _ in range(n_vars):
        start = pred_arc(start)[0]
    cycle_value = cycle_eps = 0
    x = start
    for _ in range(n_vars):
        x, _, w_value, w_eps = pred_arc(x)
        cycle_value += w_value
        cycle_eps += w_eps
        if x == start:
            break
    else:
        raise AssertionError("predecessor walk did not close a cycle")
    if not (cycle_value < 0 or (cycle_value == 0 and cycle_eps < 0)):
        raise ArithmeticError("refuting cycle is not negative")
    return None
