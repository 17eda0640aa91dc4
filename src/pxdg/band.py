"""The Kacanov band A^T diag(c) A of a row operator, and its solve.

Each relaxed Kacanov step of the solver (Diening, Fornasier, Tomasi & Wank,
Numer. Math. 145, 2020) solves A^T diag(c) A p = -g on the free DOFs, for the
term weights c of ``functional._Assembly.weights``.  Every row of A couples a
few neighbouring DOFs, so the matrix is banded and symmetric.  It is held as
its lower band: an (m + 1, n) array with H[i + k, i] in row k, column i.

``KacanovBand`` is the band of one assembly's A, and the only code that knows
this storage.  ``matrix`` scatters it from the pairs of entries of each row of
A.  ``solve`` solves it on the free DOFs by block cyclic reduction, on the
smallest blocks that its pattern allows (``BlockLayout``).  The pairs and the
block layout live as long as the band, so that they are freed with the
assembly that owns it.
"""

import numpy as np

__all__ = ["KacanovBand"]


def _tridiagonal_blocks(pattern):
    """The smallest block size b, with the smallest leading shift s < b, for
    which the lower band pattern (``pattern[k, i]`` true where H[i + k, i] may
    be nonzero) is block tridiagonal on the blocks of b rows led by s padding
    rows: row i in block (i + s) // b.  Entries below the last row are
    ignored.  (max(m, 1), 0) holds every pattern of half-bandwidth m."""
    m, n = pattern.shape[0] - 1, pattern.shape[1]
    k, i = np.nonzero(pattern)
    keep = i + k < n
    k, i = k[keep], i[keep]
    fits = ((b, s) for b in range(1, max(m, 1)) for s in range(b)
            if np.all((i + k + s) // b - (i + s) // b <= 1))
    return next(fits, (max(m, 1), 0))


# Unknowns (rows, padding excluded) at or below which block cyclic reduction
# stops and the remaining block tridiagonal system is solved as one dense
# matrix: a level costs about the same numpy calls however few blocks it holds.
# Median times of one solve (2 vCPU, 25 interleaved rounds) on Kacanov
# matrices on the blocks of ``KacanovBand.layout``, with tails of at most
# 40, 48, 64, 80 and 96 rows: DG P1 (blocks of 2) 197, 197, 196, 209, 210 us
# at 80 rows, 483, 483, 481, 528, 527 us at 640 and 878, 878, 886, 923, 917 us
# at 2560; DG P2 (blocks of 3) 194, 194, 154, 154, 154 us at 60 rows; CG P1
# (blocks of 1) 311, 313, 314, 372, 370 us at 299 and 326, 324, 332, 331,
# 333 us at 399.  Whole CG solves at 399 rows favour 48 over 64 (its dense
# tail has 24 rows, not 49): 1.04 and 1.08 times the solve time with the
# half-bandwidth blocks and the padded tail of 48 rows, in one process over 40
# interleaved rounds.  Counted with padding, a tail of 48 rows took a DG P1
# system of 40 rows (62 padded) through one level: 153 against 99 us.
TAIL_UNKNOWNS = 48


class BlockLayout:
    """Where the block tridiagonal form of an n x n band matrix with
    half-bandwidth m, on the ``blocks`` (b, s), and its right-hand side sit in
    ``[ab.ravel(), rhs, 0, 1]``, which band entries lie outside it, and how
    block cyclic reduction ends; ``solve`` solves such a band.

    The matrix is taken as N = 2^k - 1 block rows of b rows, led by s padding
    rows and trailed by as many as N b - n - s: block row i holds the rows
    i b - s, ..., i b - s + b - 1, and a padding row is an identity row.
    ``index`` has shape (b, 2b + 1, N): for block row i, its columns are
    ``[B | A | r]``, with B[i] the diagonal block, A[i] the block coupling it
    to block i - 1 and r[i] the right-hand side.  The block index is the last
    axis, so that numpy loops over it in one call.  Band entries that reach
    below row n are ignored; ``outside`` indexes the others that no block
    holds, which is none for b >= m and s = 0.  (max(m, 1), 0) holds every
    band of half-bandwidth m; smaller blocks that hold the matrix's pattern
    cost less (``KacanovBand``).

    ``depth`` levels of reduction leave at most ``TAIL_UNKNOWNS`` rows that
    are not padding, and ``tail`` slices them out of the rows left.
    """

    def __init__(self, m, n, b, s):
        self.blocks = b, s
        N = 2 ** (-(-(n + s) // b)).bit_length() - 1
        zero = (m + 2) * n
        i = np.arange(N)
        row = i * b - s + np.arange(b)[:, None, None]
        # B[i] has the columns i b - s + c, A[i] the columns (i - 1) b - s + c
        col = (i - 1) * b - s + np.roll(np.arange(2 * b), b)[:, None]
        lo, hi = np.minimum(row, col), np.maximum(row, col)
        band = (lo >= 0) & (hi < n) & (hi - lo <= m)
        H = np.where(band, (hi - lo) * n + lo, zero)
        H = np.where((row == col) & ((row < 0) | (row >= n)), zero + 1, H)
        r = np.where((row >= 0) & (row < n), (m + 1) * n + row, zero)
        self.index = np.concatenate((H, r), axis=1)
        # band entries H[j + k, j] that no block holds (np.setdiff1d would import numpy.ma)
        held = np.zeros((m + 1, n), dtype=bool)
        held.flat[H[band]] = True
        k, j = np.indices(held.shape)
        self.outside = np.flatnonzero(~held & (j + k < n))
        # the last depth leaves the one block N >> depth == 1
        for depth in range(N.bit_length()):
            # tail block t is block (t + 1) 2^depth - 1, so its rows increase with t
            first = ((np.arange(1, (N >> depth) + 1) << depth) - 1) * b - s
            lo, hi = np.searchsorted((first[:, None] + np.arange(b)).ravel(), (0, n)).tolist()
            if hi - lo <= TAIL_UNKNOWNS:
                break
        self.depth, self.tail = depth, slice(lo, hi)

    def solve(self, ab, rhs):
        """Solve H x = rhs for the SPD band matrix H given by its lower band
        ``ab`` (H[i + k, i] in row k, column i), by block cyclic reduction
        (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970) on the blocks
        of this layout, ended by a dense solve (Zhang, Cohen & Owens, PPoPP
        2010).  A band entry outside the blocks that is nonzero or nan raises
        ``np.linalg.LinAlgError``, so that no entry is dropped.

        Each level eliminates its even blocks.  One pass of elimination
        without row exchanges turns the stack ``[B | C | A | r]`` of every
        even block, with C[i] = A[i + 1]^T, into ``B^{-1} [C | A | r]``.  The
        odd blocks, each between two even ones, subtract their Schur
        complements in two batched products and form the next level.  A level
        costs the same few numpy calls whatever its size, so the levels stop
        once at most ``TAIL_UNKNOWNS`` rows that are not padding are left;
        those are scattered into one dense matrix and solved directly.
        Back-substitution then runs through the levels in reverse.  Where
        n <= ``TAIL_UNKNOWNS``, the dense solve is the whole solve.

        A matrix that is not SPD raises ``np.linalg.LinAlgError``, as does a
        non-finite solution: a failed factorization never yields a step.  The
        pivots of each level's elimination, the D of B = L D L^T, are checked
        positive and finite together, before the level is used; the dense
        matrix is checked finite (``np.linalg.cholesky`` takes an infinite
        diagonal) and positive definite by its Cholesky factorization.
        """
        b, s = self.blocks
        flat = np.concatenate((ab.ravel(), rhs, (0.0, 1.0)))
        if self.outside.size and flat.take(self.outside).any():
            raise np.linalg.LinAlgError("a band entry outside the blocks")
        T = flat.take(self.index)
        levels = []
        # the pivots of a level are checked once its elimination is done: a bad
        # one spoils only the level that the check rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(self.depth):
                even, odd = T[..., 0::2], T[..., 1::2]
                no = odd.shape[2]
                M = np.empty((b, 3 * b + 1, no + 1))
                M[:, :b] = even[:, :b]
                M[:, b:2 * b, :no] = odd[:, b:2 * b].transpose(1, 0, 2)
                M[:, b:2 * b, no] = 0.0
                M[:, 2 * b:] = even[:, b:]
                for j in range(b):
                    M[j, j + 1:] /= M[j, j]
                    if j + 1 < b:
                        M[j + 1:, j + 1:] -= M[j + 1:, j, None] * M[j, j + 1:]
                piv = np.diagonal(M, axis1=0, axis2=1)
                if not 0.0 < piv.min() <= piv.max() < np.inf:
                    raise np.linalg.LinAlgError("non-positive or non-finite pivot")
                for j in range(b - 1, 0, -1):
                    M[:j, b:] -= M[:j, j, None] * M[j, b:]
                E = M[:, b:]
                levels.append(E)
                # with E = [E_C | E_A | E_r], odd block j between even blocks j and j + 1
                # takes B - A E_C[j] - C E_A[j + 1], couples back by -A E_A[j] and has the
                # right-hand side r - A E_r[j] - C E_r[j + 1], where C = A[j + 1]^T
                left = np.einsum("ilj,lkj->ikj", odd[:, b:2 * b], E[..., :-1])
                right = np.einsum("lij,lkj->ikj", even[:, b:2 * b, 1:], E[:, b:, 1:])
                T = odd - left
                np.negative(left[:, b:2 * b], out=T[:, b:2 * b])
                T[:, :b] -= right[:, :b]
                T[:, 2 * b] -= right[:, b]
        # the tail: block i of the dense matrix holds B[i], A[i] left of it and
        # A[i + 1]^T right of it
        N = T.shape[2]
        i = np.arange(N)
        D = np.zeros((N, b, N, b))
        D[i, :, i] = T[:, :b].transpose(2, 0, 1)
        D[i[1:], :, i[:-1]] = T[:, b:2 * b, 1:].transpose(2, 0, 1)
        D[i[:-1], :, i[1:]] = T[:, b:2 * b, 1:].transpose(2, 1, 0)
        # a padding row stays an identity row with no coupling and a zero
        # right-hand side through every level, so the dense solve leaves it out
        D = D.reshape(N * b, N * b)[self.tail, self.tail]
        if not np.all(np.isfinite(D)):
            raise np.linalg.LinAlgError("non-finite matrix")
        # the factor only certifies D positive definite: numpy has no triangular
        # solve, and two general ones on it cost more than one on D
        np.linalg.cholesky(D)
        # x holds the blocks a level left over, between two zero blocks
        x = np.zeros((b, N + 2))
        xt = np.zeros(N * b)
        xt[self.tail] = np.linalg.solve(D, T[:, 2 * b].T.ravel()[self.tail])
        x[:, 1:-1] = xt.reshape(N, b).T
        for E in reversed(levels):
            xe = E[:, 2 * b] - np.einsum("ilj,lj->ij", E[:, :2 * b],
                                         np.concatenate((x[:, 1:], x[:, :-1])))
            x, xo = np.zeros((b, 2 * E.shape[2] + 1)), x
            x[:, 1::2] = xe
            x[:, 2:-1:2] = xo[:, 1:-1]
        x = x[:, 1:-1].T.ravel()[s:s + rhs.size]
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("non-finite solution")
        return x


class KacanovBand:
    """The matrix A^T diag(c) A of the row operator A (a
    ``functional._RowOp``), solved on the columns ``free``, a slice."""

    def __init__(self, A, free):
        """The pairs of entries and the block layout; the owning assembly
        builds its band at the first solve.

        The pairs (pos, row, val) give H[i + k, i] at [k, i] for the n columns
        of A, as the sum of ``val * c[row]`` over the pairs at the flat
        position ``pos = k n + i``.  There is one pair for every two entries
        a, b of one row of A with b not after a, so col a >= col b:
        k = col a - col b, i = col b and val the product of the two.  They are
        sorted by position, then by row, so each band entry adds its products
        in row order.

        ``layout`` is the ``BlockLayout`` of the band on the free columns, on
        the blocks that ``_tridiagonal_blocks`` finds in its structural
        pattern, the positions of the pairs.  These are (k + 1, 1) for DG on
        three or more elements: a volume row reaches its own element's DOFs
        and the one next to each of its faces, so the blocks are centred on
        the faces.  They are (k, 0) for CG."""
        rows, cols, vals = A.rows, A.cols, A.vals
        first = np.searchsorted(rows, rows)  # the first entry of each entry's row
        a = np.repeat(np.arange(rows.size), np.arange(rows.size) - first + 1)
        b = first[a] + np.arange(a.size) - np.searchsorted(a, a)
        pos = (cols[a] - cols[b]) * A.shape[1] + cols[b]
        order = np.lexsort((rows[a], pos))
        self.pos, self.row, self.val = pos[order], rows[a][order], (vals[a] * vals[b])[order]
        self.n, self.free = A.shape[1], free
        self.size = (self.pos[-1] // self.n + 1) * self.n
        pattern = np.bincount(self.pos, minlength=self.size).reshape(-1, self.n)[:, free] > 0
        self.layout = BlockLayout(pattern.shape[0] - 1, pattern.shape[1],
                                  *_tridiagonal_blocks(pattern))

    def matrix(self, c):
        """A^T diag(c) A, for the term weights c, as its lower band on every
        column: one ``np.bincount`` over the pairs.  For s <= 2 the relaxed
        Kacanov weights with eps = 0 give a quadratic model that majorizes the
        energy; at s = 2 it is the Hessian."""
        H = np.bincount(self.pos, self.val * c.take(self.row), minlength=self.size)
        return H.reshape(-1, self.n)

    def solve(self, c, rhs):
        """The x on the free DOFs with A^T diag(c) A x = rhs there, the
        pinned DOFs held at 0; raises ``np.linalg.LinAlgError`` where the
        matrix is not SPD (``BlockLayout.solve``)."""
        return self.layout.solve(self.matrix(c)[:, self.free], rhs)
