"""Dense linear algebra over a generic scalar field, for the test oracles.

No code path of the package calls these: they are the exact solver of the
test oracles, whose systems are tiny (<= 25 unknowns), so plain Gaussian
elimination with magnitude pivoting is both exact and instant.
"""

from nahmpole.scalars import context


def _pivot_row(field, rows, col, start):
    """Row index of the largest-magnitude usable pivot, or None."""
    best, best_mag = None, None
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if field.is_zero(rows[r][col]):
            continue
        if best is None or mag > best_mag:
            best, best_mag = r, mag
    return best


def solve_dense(field, matrix, rhs):
    """Solve ``matrix @ x = rhs`` for square ``matrix``: :func:`rref` of
    the augmented matrix.

    Raises ``ZeroDivisionError`` if elimination meets a vanishing pivot
    (singular system), which callers surface as a resonance-style failure.
    """
    n = len(matrix)
    rows, pivots = rref(field, [list(row) + [rhs[i]] for i, row in enumerate(matrix)])
    missing = [c for c in range(n) if c not in pivots]
    if missing:
        raise ZeroDivisionError(f"singular system (no pivot in column {missing[0]})")
    return [rows[i][n] for i in range(n)]


def rref(field, matrix):
    """Reduced row echelon form.

    :return: ``(rows, pivot_cols)`` where ``rows`` is the reduced matrix and
        ``pivot_cols`` lists the pivot column of each nonzero row.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    rank = 0
    with context(field):
        for col in range(n):
            if rank >= m:
                break
            piv = _pivot_row(field, rows, col, rank)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = field.one / rows[rank][col]
            rows[rank] = [v * inv for v in rows[rank]]
            for r in range(m):
                if r == rank:
                    continue
                factor = rows[r][col]
                if field.is_zero(factor):
                    continue
                rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[rank])]
            pivots.append(col)
            rank += 1
    return rows, pivots


def nullspace(field, matrix):
    """Basis of the right kernel of ``matrix`` (list of column vectors)."""
    if not matrix:
        return []
    n = len(matrix[0])
    rows, pivots = rref(field, matrix)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    with context(field):
        for fc in free_cols:
            vec = [field.zero] * n
            vec[fc] = field.one
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(vec)
    return basis
