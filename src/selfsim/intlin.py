"""Small exact integer linear algebra: Hermite forms over row lattices.

Rows are lattice generators inside Z^cols.  hnf returns the row-style
Hermite normal form together with the unimodular transform that produced
it, which is all the machinery coset membership, lattice indices, and
integer kernels need.  Everything is plain bigint arithmetic.
"""


def _row_addmul(dst, src, q):
    for k in range(len(dst)):
        dst[k] += q * src[k]


def hnf(rows, cols):
    """Row Hermite form with transform: returns (H, U, pivots), U*A = H.

    H is in row echelon form with positive pivots and reduced entries
    above each pivot; U is unimodular; pivots lists (row, col) pairs.
    """
    A = [list(r) + [0] * (cols - len(r)) for r in rows]
    k = len(A)
    U = [[1 if i == jj else 0 for jj in range(k)] for i in range(k)]
    r = 0
    pivots = []
    for col in range(cols):
        piv = None
        for i in range(r, k):
            if A[i][col]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, k):
            while A[i][col]:
                q = A[r][col] // A[i][col]
                _row_addmul(A[r], A[i], -q)
                _row_addmul(U[r], U[i], -q)
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
        if A[r][col] < 0:
            A[r] = [-v for v in A[r]]
            U[r] = [-v for v in U[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                _row_addmul(A[i], A[r], -q)
                _row_addmul(U[i], U[r], -q)
        pivots.append((r, col))
        r += 1
    return A, U, pivots


def solve_left(rows, target, cols):
    """Integer x with x * rows == target, or None when no solution exists."""
    H, U, pivots = hnf(rows, cols)
    b = list(target) + [0] * (cols - len(target))
    y = [0] * len(rows)
    for r, c in pivots:
        q, rem = divmod(b[c], H[r][c])
        if rem:
            return None
        y[r] = q
        for k in range(cols):
            b[k] -= q * H[r][k]
    if any(b):
        return None
    out = [0] * len(rows)
    for i, yi in enumerate(y):
        if yi:
            for k in range(len(rows)):
                out[k] += yi * U[i][k]
    return out


def lattice_index(rows, cols):
    """Index [Z^cols : row span], or None when the span has lower rank."""
    if len(rows) < cols:
        return None     # the rank is at most the row count: no column scan
    H, _, pivots = hnf(rows, cols)
    if len(pivots) < cols:
        return None
    out = 1
    for r, c in pivots:
        out *= H[r][c]
    return out


def left_kernel(rows, cols):
    """Basis of {x : x * rows == 0} as rows of integers."""
    _, U, pivots = hnf(rows, cols)
    rank = len(pivots)
    return [list(U[i]) for i in range(rank, len(rows))]
