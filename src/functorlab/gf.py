"""Exact linear algebra over prime fields F_p.

Matrices are dense with entries in {0, ..., p-1}; a linear map F_p^cols ->
F_p^rows is a (rows, cols) int64 array acting on column vectors, and every
routine takes p explicitly.  ``Subspace`` is immutable and hashable, so the
subspace functor can number its elements by it; it is stored through its
reduced row-echelon basis, which makes equality of subspaces plain value
equality.

Every rref, rank, kernel and solve runs on one of three elimination
regimes, chosen by the shape of the input.  Up to _LIST_CELLS entries, for
every p, a matrix is reduced as Python lists, which costs no numpy call per
row or pivot.  Above that, a GF(2) matrix at least _PACK_THRESHOLD columns
wide goes to rref_bits, which packs rows into uint64 words and clears each
pivot column with one XOR, and any other matrix makes one masked numpy
update per pivot of the rows that are nonzero in its column.  All three
compute the same canonical forms, and the tests check them against each
other and against the row-by-row elimination they replaced.  The list regime
is one row-level routine, _reduce_rows, which nullspace, proj_with_kernel
and the increments of closure (_extend) and of generator_start
(_extend_carrying) share: below _LIST_CELLS entries they too stay in Python
rows and make one array at the end; above it they run on numpy arrays.  An
empty input needs no elimination in rref and nullspace.

``closure`` is the one closure engine: the smallest family of subspaces that
contains given vectors and is closed under a set of linear maps between them.
Generated subfunctors and module spins both run on it.

``intertwiner_space`` solves the equations X_j a = b X_i of natural
transformations, module-functor maps and module homs on the solutions
themselves, one equation at a time; no equation is written out over all
unknowns.  The solutions start as the rows of ``generator_start``: a closure
of the a's, one generator at a time, that carries each vector's image and
leaves one row per value on a generating vector, far fewer rows than
unknowns whose span still holds every solution.

``BudgetExceeded``, ``WindowExceeded`` and ``SplittingFailure``, the errors
that end a CLI run with exit 2, live here, so callers catch them without
loading the layers that raise them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_MAP_BUDGET = 1 << 20

# Most maps map_indices can number: positions must fit in int64.
MAX_MAP_INDEX = np.iinfo(np.int64).max

# Maps per slice when a hom-set is walked as a stack: bounds the memory of one
# step of enumerate_maps, hom-set filters, table fills, functor-law checks and
# the elimination behind general_linear.
MAP_SLICE = 1 << 8

# Most vectors one exhaustive scan may visit: the kernel spins of the
# splitting engine, the exhaustive simplicity route and the isomorphism
# searches all stop here.
SCAN_BUDGET = 1 << 12

# Entries are stored as uint8, so no larger prime fits.
MAX_PRIME = 251

# Separates the entries of a matrix written into a JSON map key.
MAP_KEY_SEP = "."

# Matrices at least this wide go through the packed GF(2) path.
_PACK_THRESHOLD = 48

# rref_dense reduces matrices of at most this many entries as Python lists,
# larger ones by masked numpy updates.  Lists lose from about 200-400 entries
# on dense matrices and from about 1000-2000 on sparse ones.
_LIST_CELLS = 512


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""

    def __init__(self, budget_name: str, needed, allowed):
        super().__init__(f"budget '{budget_name}' exceeded: needs {needed}, allows {allowed}")
        self.budget_name = budget_name
        self.needed = needed
        self.allowed = allowed


class WindowExceeded(RuntimeError):
    """A query needs functor values outside the stored window."""


class SplittingFailure(RuntimeError):
    """The seeded search for a splitting element did not converge."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    """p when it is a prime that fits the uint8 storage."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p = {p!r} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds {MAX_PRIME}, the largest prime entries can be stored for")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


# ---------------------------------------------------------------------------
# raw array routines


def _as_mat(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array")
    return arr


def _pack_rows(mat: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 words, little-endian within each word."""
    m, n = mat.shape
    nwords = max(1, (n + 63) // 64)
    padded = np.zeros((m, nwords * 64), dtype=np.uint8)
    padded[:, :n] = mat.astype(np.uint8) & 1
    bits = np.packbits(padded, axis=1, bitorder="little")
    return bits.view(np.uint64).reshape(m, nwords)


def _unpack_rows(words: np.ndarray, ncols: int) -> np.ndarray:
    m = words.shape[0]
    bits = np.unpackbits(words.reshape(m, -1).view(np.uint8), axis=1, bitorder="little")
    return bits[:, :ncols].astype(np.int64)


def rref_bits(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) via packed word operations."""
    mat = _as_mat(mat)
    m, n = mat.shape
    if m == 0 or n == 0:
        return mat % 2, []
    rows = _pack_rows(mat)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        word, bit = divmod(col, 64)
        mask = np.uint64(1) << np.uint64(bit)
        hits = np.nonzero(rows[r:, word] & mask)[0]
        if hits.size == 0:
            continue
        piv = r + hits[0]
        if piv != r:
            rows[[r, piv]] = rows[[piv, r]]
        sel = (rows[:, word] & mask).astype(bool)
        sel[r] = False
        if sel.any():
            rows[sel] ^= rows[r]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return _unpack_rows(rows, n), pivots


def rref_dense(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p, as a new array, with its pivot
    columns: as Python rows up to _LIST_CELLS entries, above that by one
    masked numpy update per pivot."""
    a = _as_mat(mat) % p
    if a.size <= _LIST_CELLS:
        return _rref_lists(a, p)
    return _rref_masked(a, a.shape[1], p)


def _rref_lists(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """rref_dense on the rows of a as Python lists; one array at the end."""
    rows = a.tolist()
    pivots = _reduce_rows(rows, a.shape[1], p)
    return np.array(rows, dtype=np.int64).reshape(a.shape), pivots


def _reduce_rows(rows: list[list[int]], n: int, p: int) -> list[int]:
    """Bring rows, Python lists of n entries in 0..p-1, to reduced row
    echelon form in place and return the pivot columns.  The list regime of
    every kernel below _LIST_CELLS entries runs on this."""
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][col]:
                break
        else:
            continue
        top = rows[piv]
        rows[piv] = rows[r]
        if top[col] != 1:
            inv = inv_mod(top[col], p)
            top = [x * inv % p for x in top]
        rows[r] = top
        # top is zero left of col, so only the entries from col on change
        tail = top[col:]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = row[:col] + [(x - f * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        r += 1
    return pivots


def _rref_masked(a: np.ndarray, n: int, p: int) -> tuple[np.ndarray, list[int]]:
    """rref_dense in place on a, with pivots in its first n columns: per
    pivot, one update of the rows that are nonzero in its column, from that
    column on."""
    m = a.shape[0]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        hits = np.flatnonzero(a[r:, col])
        if not hits.size:
            continue
        piv = r + int(hits[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        lead = int(a[r, col])
        if lead != 1:
            a[r, col:] = a[r, col:] * inv_mod(lead, p) % p
        rows = np.flatnonzero(a[:, col])
        rows = rows[rows != r]
        if rows.size:
            # row r is zero left of col, so this is the whole row update
            a[rows, col:] = (a[rows, col:] - a[rows, col, None] * a[r, col:]) % p
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a, pivots


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF with pivot columns; dispatches to the packed path for GF(2) input
    wide enough and above _LIST_CELLS entries."""
    a = _as_mat(mat)
    if not a.size:
        return a % p, []
    if p == 2 and a.shape[1] >= _PACK_THRESHOLD and a.size > _LIST_CELLS:
        return rref_bits(a)
    return rref_dense(a, p)


def rank(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (RREF rows) of the right kernel {v : mat @ v = 0}, from one RREF
    of mat with its columns reversed.  There the kernel vector of a free
    column f has its 1 at f and its other entries at pivot columns before f;
    reversed back, its leading 1 sits at a free column no other vector
    touches, so the vectors, last first, are already the reduced basis."""
    a = _as_mat(mat) % p
    m, n = a.shape
    if not m or not n:
        return np.eye(n, dtype=np.int64)
    if a.size <= _LIST_CELLS:
        return _nullspace_lists(a, p)
    r, pivots = rref(a[:, ::-1], p)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.eye(n, dtype=np.int64)[free]
    basis[:, pivots] = -r[: len(pivots), free].T % p
    return np.ascontiguousarray(basis[::-1, ::-1])


def _nullspace_lists(a: np.ndarray, p: int) -> np.ndarray:
    """nullspace on the rows of a as Python lists; one array at the end."""
    n = a.shape[1]
    rows = a[:, ::-1].tolist()
    pivots = _reduce_rows(rows, n, p)
    out = []
    for f in reversed(range(n)):
        if f in pivots:
            continue
        v = [0] * n
        v[n - 1 - f] = 1
        # rows of pivots after f are zero at f
        for row, c in zip(rows, pivots):
            if c > f:
                break
            if row[f]:
                v[n - 1 - c] = p - row[f]
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(len(out), n)


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs, or None when inconsistent."""
    a = _as_mat(mat) % p
    b = np.asarray(rhs, dtype=np.int64).reshape(-1) % p
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("dimension mismatch in solve")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n]
    return x


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse over F_p of a square matrix; ValueError when it has none."""
    a = _as_mat(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("not square")
    r, pivots = rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("not invertible")
    return np.ascontiguousarray(r[:, n:])


def intertwiner_space(shapes: dict, blocks, p: int) -> list[dict]:
    """Basis of the solutions of the equations X_j a = b X_i.

    ``shapes`` maps each unknown's key to its (rows, cols).  ``blocks`` yields
    (i, j, a, b) with a: cols_i -> cols_j and b: rows_i -> rows_j; it is
    listed once, and not read at all when every unknown is empty.  Each
    solution is a dict key -> matrix.  The rows of ``sols`` span the
    solutions of the equations read so far: every unknown's entries,
    row-major, one unknown after another.  They start as the rows of
    ``generator_start``, whose span holds every solution, and an equation
    keeps the combinations of rows whose residues vanish.  The rows left
    depend on the order of the equations and their RREF only on the solution
    space, so the returned basis is canonical.
    """
    offsets, total = {}, 0
    for key, (r, c) in shapes.items():
        offsets[key] = total
        total += r * c
    if total == 0:
        return []

    def unknown(key):
        (r, c), off = shapes[key], offsets[key]
        return sols[:, off: off + r * c].reshape(len(sols), r, c)

    blocks = list(blocks)
    sols = generator_start(shapes, blocks, p)
    for i, j, a, b in blocks:
        res = (unknown(j) @ a - b @ unknown(i)) % p
        if not res.any():
            continue
        r, pivots = rref(res.reshape(len(sols), -1).T, p)
        free = np.ones(len(sols), dtype=bool)
        free[pivots] = False
        sols = (sols[free] - r[: len(pivots), free].T @ sols[pivots]) % p
        if not len(sols):
            return []
    sols = rref(sols, p)[0]
    return [{key: unknown(key)[t] for key in shapes} for t in range(len(sols))]


def generator_start(shapes: dict, blocks: list, p: int) -> np.ndarray:
    """K independent rows, laid out as intertwiner_space lays out unknowns,
    whose span holds every solution of the equations X_j a = b X_i.

    The equations give X_j (a v) = b (X_i v), so X is fixed by its values on
    vectors that generate the pieces under the a's: the condensation at
    generating objects of Green, LNM 830, 6.2.  A semi-naive closure of the
    a's over the pieces, in ``shapes`` order: when nothing grows, the first
    piece o that is not full takes its first non-pivot standard vector as
    one more generator, with rows_o fresh unknowns for its image.  Beside
    each RREF row v of piece i rides its image X_i v, a (K, rows_i) block
    flattened after v, which an edge pushes by b; a pushed row that reduces
    to zero is a relation the equations check later.  Once every piece is
    full its rows are the identity, so the images are the columns of X_i."""
    outgoing = {k: [] for k in shapes}
    for i, j, a, b in blocks:
        outgoing[i].append((j, a, b))
    aug = {k: np.zeros((0, c), dtype=np.int64) for k, (_, c) in shapes.items()}
    piv = {k: [] for k in shapes}
    k_total = 0

    def widened(k):
        # a piece's rows carry no image entries for unknowns added since it last grew
        m, width = aug[k], shapes[k][1] + k_total * shapes[k][0]
        return m if m.shape[1] == width else np.concatenate(
            [m, np.zeros((len(m), width - m.shape[1]), dtype=np.int64)], axis=1)

    for o, (r, c) in shapes.items():
        while len(piv[o]) < c:
            gen = np.zeros((1, c + (k_total + r) * r), dtype=np.int64)
            gen[0, next(x for x in range(c) if x not in piv[o])] = 1
            # its image is the identity on the fresh unknowns k_total .. k_total + r-1
            gen[0, c + k_total * r :: r + 1] = 1
            k_total += r
            pending = {o: [gen]}
            while pending:
                this_round, pending = pending, {}
                for i, rows in this_round.items():
                    ri, ci = shapes[i]
                    aug[i], piv[i], inc = _extend_carrying(widened(i), ci, piv[i], rows, p)
                    for j, a, b in outgoing[i]:
                        if len(inc) and len(piv[j]) < shapes[j][1]:
                            img = inc[:, ci:].reshape(len(inc) * k_total, ri) @ b.T
                            pushed = np.concatenate([inc[:, :ci] @ a.T, img.reshape(len(inc), -1)], axis=1)
                            pending.setdefault(j, []).append(pushed % p)
    return np.concatenate(
        [widened(k)[:, c:].reshape(c, k_total, r).transpose(1, 2, 0).reshape(k_total, r * c)
         for k, (r, c) in shapes.items()],
        axis=1,
    )


def _extend_carrying(aug: np.ndarray, n: int, pivots: list[int], rows: list[np.ndarray], p: int):
    """The RREF, with pivots in the first n columns only, of the rows of aug
    (already in that form, at ``pivots``) over the blocks of rows (entries in
    0..p-1); the other entries ride along with every row operation.  Returns
    it with its pivots and the increment, its rows at new pivots; up to
    _LIST_CELLS entries it runs on Python rows."""
    stacked = np.concatenate([aug, *rows])
    if stacked.size <= _LIST_CELLS:
        out = stacked.tolist()
        new = _reduce_rows(out, n, p)
        out = np.array(out[: len(new)], dtype=np.int64).reshape(len(new), stacked.shape[1])
    else:
        out, new = _rref_masked(stacked, n, p)
        out = out[: len(new)]
    if not pivots:
        return out, new, out
    old = set(pivots)
    return out, new, out[[k for k, c in enumerate(new) if c not in old]]


def closure(dims: dict, edges, start: dict, p: int) -> dict:
    """Smallest family of subspaces V_k of F_p^dims[k] that contains the start
    vectors and is closed under the edges, as RREF row bases per key.

    An edge (i, j, m) sends V_i into V_j by the dims[j] x dims[i] matrix m, or
    by m() when m is callable; m() is called once, when V_i first has vectors
    to push.  Semi-naive: each round pushes only each piece's increment, the
    rows of its new RREF at new pivot columns, which span a complement of the
    old space because a subspace's pivots are pivots of every space containing
    it.  It stops once no piece grows or every piece is full.
    """
    outgoing = {k: [] for k in dims}
    for i, j, m in edges:
        outgoing[i].append([j, m])
    bases = {k: np.zeros((0, n), dtype=np.int64) for k, n in dims.items()}
    pivots: dict = {k: [] for k in dims}
    not_full = {k for k, n in dims.items() if n}
    pending = {k: [np.asarray(v, dtype=np.int64).reshape(-1, dims[k]) % p] for k, v in start.items() if dims[k]}
    while pending and not_full:
        grown = {}
        for k, rows in pending.items():
            bases[k], pivots[k], inc = _extend(bases[k], pivots[k], np.concatenate(rows), p)
            if inc.shape[0]:
                grown[k] = inc
            if len(pivots[k]) == dims[k]:
                not_full.discard(k)
        pending = {}
        for i, inc in grown.items():
            for edge in outgoing[i]:
                j, m = edge
                if j in not_full:
                    if callable(m):
                        edge[1] = m = m()
                    pending.setdefault(j, []).append((inc @ m.T) % p)
    return bases


def _extend(basis: np.ndarray, pivots: list[int], rows: np.ndarray, p: int):
    """The RREF basis and pivots of span(basis) + span(rows), and the
    increment: the rows of that basis at pivot columns not in ``pivots``.
    Up to _LIST_CELLS entries in all, basis and rows are reduced together as
    Python lists."""
    if basis.size + rows.size <= _LIST_CELLS:
        return _extend_lists(basis, pivots, rows, p)
    if pivots:
        rows = (rows - rows[:, pivots] @ basis) % p
    rows = rows[rows.any(axis=1)]
    if not rows.shape[0]:
        return basis, pivots, rows
    inc, piv = rref(rows, p)
    inc = inc[: len(piv)]
    if pivots:
        basis = (basis - basis[:, piv] @ inc) % p
    order = np.argsort(pivots + piv)
    return np.concatenate([basis, inc])[order], sorted(pivots + piv), inc


def _extend_lists(basis: np.ndarray, pivots: list[int], rows: np.ndarray, p: int):
    """_extend by one list RREF of the rows of basis over those of rows: the
    RREF of the sum is unique, and its rows at new pivot columns are the
    increment."""
    n = rows.shape[1]
    stacked = basis.tolist() + (rows % p).tolist()
    new = _reduce_rows(stacked, n, p)
    if len(new) == len(pivots):
        return basis, pivots, np.zeros((0, n), dtype=np.int64)
    out = np.array(stacked[: len(new)], dtype=np.int64).reshape(len(new), n)
    old = set(pivots)
    return out, new, out[[k for k, c in enumerate(new) if c not in old]]


def nonzero_combinations(basis: np.ndarray, p: int):
    """Every nonzero combination of the rows of basis, coefficients in lexicographic order."""
    for coeffs in itertools.product(range(p), repeat=basis.shape[0]):
        if any(coeffs):
            yield (np.asarray(coeffs, dtype=np.int64) @ basis) % p


def spans_invertible(basis: list[list[np.ndarray]], p: int) -> bool:
    """Whether some combination of the basis elements, each a list of square
    blocks, is invertible in every block.

    At most SCAN_BUDGET nonzero combinations are tried.  When that covers all
    of them the answer is exact either way; otherwise combinations drawn
    from ``random.Random(0)`` are tried, a hit answers True, and a miss raises
    ``BudgetExceeded`` instead of guessing False.
    """
    if not basis:
        return False
    k = len(basis)
    stacks = [np.stack(blocks) for blocks in zip(*basis)]  # one (k, n, n) stack per block

    def invertible(coeffs):
        return all(rank(np.tensordot(coeffs, s, axes=1) % p, p) == s.shape[1] == s.shape[2] for s in stacks)

    if p**k - 1 <= SCAN_BUDGET:
        return any(invertible(c) for c in nonzero_combinations(np.eye(k, dtype=np.int64), p))
    rng = random.Random(0)
    for _ in range(SCAN_BUDGET):
        if invertible(np.array(rng.choices(range(p), k=k), dtype=np.int64)):
            return True
    raise BudgetExceeded("isomorphism search", p**k, SCAN_BUDGET)


def tensor_apply(factors, x: np.ndarray, p: int) -> np.ndarray:
    """(A_1 (x) ... (x) A_m) @ x mod p in numpy.kron's row-major order, never
    forming the product: each factor acts along its own axis of x, which then
    moves to the back, reduced mod p every time (Van Loan, J. Comput. Appl.
    Math. 123, 2000).  With no factors, x comes back as it is."""
    k = x.shape[1]
    if not x.size or not all(a.size for a in factors):
        return np.zeros((int(np.prod([a.shape[0] for a in factors])), k), dtype=np.int64)
    for a in factors:
        x = ((a @ x.reshape(a.shape[1], -1)) % p).T
    return np.ascontiguousarray(x.reshape(k, -1).T)


def restrict(big, src_basis: np.ndarray, dst_basis: np.ndarray, p: int) -> np.ndarray:
    """Matrix of big (a matrix, or a list of tensor_apply factors) from span(src_basis)
    to span(dst_basis), both RREF row bases; raises when big does not send the one into the other."""
    img = tensor_apply(big, src_basis.T, p) if isinstance(big, list) else (big @ src_basis.T) % p
    x = img[_pivots(dst_basis), :]
    if not np.array_equal((dst_basis.T @ x) % p, img):
        raise ValueError("subspace is not respected")
    return x


def _pivots(rref_rows: np.ndarray) -> list[int]:
    """The column of the first nonzero entry of each row (no zero rows)."""
    return (rref_rows != 0).argmax(axis=1).tolist() if rref_rows.size else []


def encode_entries(m: np.ndarray) -> str:
    """The entries of the 2-d array m, row-major, as a JSON map-key fragment."""
    return MAP_KEY_SEP.join(map(str, m.ravel().tolist()))


def decode_entries(text: str, rows: int, cols: int, p: int) -> np.ndarray:
    """Inverse of encode_entries; also reads keys written with one character per entry."""
    parts = text.split(MAP_KEY_SEP)
    if len(parts) != rows * cols:
        parts = list(text)
    if len(parts) != rows * cols:
        raise ValueError(f"map key {text!r} does not hold {rows}x{cols} entries")
    entries = [int(c) for c in parts]
    if not all(0 <= x < p for x in entries):
        raise ValueError(f"map key {text!r} has an entry outside 0..{p - 1}")
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def row_space_contains(rref_rows: np.ndarray, pivots: list[int], vec: np.ndarray, p: int) -> bool:
    """Membership test against an already reduced basis."""
    v = np.asarray(vec, dtype=np.int64) % p
    for i, pc in enumerate(pivots):
        if v[pc]:
            v = (v - v[pc] * rref_rows[i]) % p
    return not v.any()


# ---------------------------------------------------------------------------
# Subspace


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^ambient, canonical RREF row basis (no zero rows)."""

    p: int
    ambient: int
    dim: int
    basis: bytes

    @staticmethod
    def from_vectors(vectors, p: int, ambient: int) -> "Subspace":
        arr = np.asarray(vectors, dtype=np.int64).reshape(-1, ambient) if ambient else np.zeros((0, 0), dtype=np.int64)
        r, pivots = rref(arr, p)
        k = len(pivots)
        return Subspace(p, ambient, k, r[:k].astype(np.uint8).tobytes())

    @staticmethod
    def zero(ambient: int, p: int) -> "Subspace":
        return Subspace(p, ambient, 0, b"")

    @staticmethod
    def full(ambient: int, p: int) -> "Subspace":
        return Subspace.from_vectors(np.eye(ambient, dtype=np.int64), p, ambient)

    @property
    def basis_arr(self) -> np.ndarray:
        return np.frombuffer(self.basis, dtype=np.uint8).reshape(self.dim, self.ambient).astype(np.int64)

    @property
    def pivots(self) -> list[int]:
        return _pivots(self.basis_arr)

    def contains_vector(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64).reshape(-1)
        return row_space_contains(self.basis_arr, self.pivots, v, self.p)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis_arr)

    def vectors(self):
        """All vectors of the subspace, deterministic order."""
        yield np.zeros(self.ambient, dtype=np.int64)
        yield from nonzero_combinations(self.basis_arr, self.p)

    def __repr__(self):
        return f"Subspace(p={self.p}, dim {self.dim} of F^{self.ambient}, {self.basis_arr.tolist()})"


def kernel_space(m: np.ndarray, p: int) -> Subspace:
    """{v : m v = 0} in canonical form."""
    return Subspace.from_vectors(nullspace(m, p), p, m.shape[1])


def preimage(m: np.ndarray, t: Subspace) -> Subspace:
    """m^{-1}(t) as a subspace of the domain of m, over the field of t."""
    if t.ambient != m.shape[0]:
        raise ValueError("preimage ambient mismatch")
    return kernel_space(proj_with_kernel(t)[0] @ m, t.p)


def pivot_complement(u: Subspace) -> Subspace:
    """Complement spanned by standard basis vectors at non-pivot coordinates."""
    piv = set(u.pivots)
    vecs = [np.eye(u.ambient, dtype=np.int64)[j] for j in range(u.ambient) if j not in piv]
    if not vecs:
        return Subspace.zero(u.ambient, u.p)
    return Subspace.from_vectors(np.stack(vecs), u.p, u.ambient)


def proj_with_kernel(u: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Canonical projection P: F^d -> F^{d-k} with kernel u, plus its section.

    P restricted to the pivot complement sends the j-th non-pivot standard
    basis vector to the j-th standard basis vector; the returned section
    embeds F^{d-k} back onto the pivot complement, so P @ section = id.
    Up to _LIST_CELLS entries in F^d x F^d, both are built as Python lists.
    """
    p, d = u.p, u.ambient
    if d * d <= _LIST_CELLS:
        return _proj_with_kernel_lists(u)
    basis = u.basis_arr
    piv = _pivots(basis)
    nonpiv = [j for j in range(d) if j not in piv]
    sect = np.eye(d, dtype=np.int64)[:, nonpiv]
    proj = sect.T.copy()
    proj[:, piv] = -basis[:, nonpiv].T % p
    return proj, sect


def _proj_with_kernel_lists(u: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """proj_with_kernel read off the basis bytes as Python lists."""
    p, d, b = u.p, u.ambient, u.basis
    rows = [b[i * d: (i + 1) * d] for i in range(u.dim)]
    piv = [d - len(row.lstrip(b"\0")) for row in rows]
    nonpiv = [j for j in range(d) if j not in piv]
    proj = []
    for j in nonpiv:
        v = [0] * d
        v[j] = 1
        for row, c in zip(rows, piv):
            if row[j]:
                v[c] = p - row[j]
        proj.append(v)
    sect = [[int(j == c) for c in nonpiv] for j in range(d)]
    k = len(nonpiv)
    return np.array(proj, dtype=np.int64).reshape(k, d), np.array(sect, dtype=np.int64).reshape(d, k)


# ---------------------------------------------------------------------------
# enumeration


def count_maps(p: int, dom_dim: int, cod_dim: int) -> int:
    return p ** (dom_dim * cod_dim)


def _digit_weights(p: int, dom_dim: int, cod_dim: int) -> np.ndarray:
    """The (cod, dom) weights of the entries of a map in its enumerate_maps
    position: entry (i, j) is base-p digit j * cod + i, most significant first."""
    weights = p ** np.arange(dom_dim * cod_dim - 1, -1, -1, dtype=np.int64)
    return np.ascontiguousarray(weights.reshape(dom_dim, cod_dim).T)


def _map_range(p: int, dom_dim: int, cod_dim: int, start: int, stop: int) -> np.ndarray:
    """Maps start..stop-1 of F_p^dom -> F_p^cod in enumerate_maps order as a
    contiguous (k, cod, dom) stack, built in place."""
    stack = np.arange(start, stop, dtype=np.int64)[:, None, None] // _digit_weights(p, dom_dim, cod_dim)
    stack %= p
    return stack


def map_slices(p: int, dom_dim: int, cod_dim: int, budget: int = DEFAULT_MAP_BUDGET):
    """All linear maps F_p^dom -> F_p^cod in enumerate_maps order, as
    (k, cod, dom) stacks of at most MAP_SLICE maps."""
    total = count_maps(p, dom_dim, cod_dim)
    if total > budget:
        raise BudgetExceeded("maps", total, budget)
    for start in range(0, total, MAP_SLICE):
        yield _map_range(p, dom_dim, cod_dim, start, min(start + MAP_SLICE, total))


def enumerate_maps(p: int, dom_dim: int, cod_dim: int, budget: int = DEFAULT_MAP_BUDGET):
    """All linear maps F_p^dom -> F_p^cod, lexicographic on column-major
    entries: the maps of the map_slices stacks, one at a time."""
    for stack in map_slices(p, dom_dim, cod_dim, budget):
        yield from stack


def map_stack(p: int, dom_dim: int, cod_dim: int, budget: int | None = None) -> np.ndarray:
    """All linear maps F_p^dom -> F_p^cod as one (count, cod, dom) array in
    enumerate_maps order; the budget defaults to DEFAULT_MAP_BUDGET."""
    total = count_maps(p, dom_dim, cod_dim)
    budget = DEFAULT_MAP_BUDGET if budget is None else budget
    if total > budget:
        raise BudgetExceeded("maps", total, budget)
    return _map_range(p, dom_dim, cod_dim, 0, total)


def map_indices(stack: np.ndarray, p: int) -> np.ndarray:
    """The position in enumerate_maps order of every matrix of a (..., cod,
    dom) stack with entries in 0..p-1; the inverse of map_stack.  Callers
    list maps under their own budgets; positions need only fit in int64."""
    *lead, cod_dim, dom_dim = stack.shape
    total = count_maps(p, dom_dim, cod_dim)
    if total > MAX_MAP_INDEX:
        raise BudgetExceeded("maps", total, MAX_MAP_INDEX)
    return stack.reshape(*lead, cod_dim * dom_dim) @ _digit_weights(p, dom_dim, cod_dim).reshape(-1)


@lru_cache(maxsize=None)
def general_linear(p: int, dim: int) -> np.ndarray:
    """GL(dim, p) as one read-only (K, dim, dim) stack in enumerate_maps
    order: the maps of each map_slices stack that _invertible keeps, rebuilt
    from their positions."""
    keep = np.concatenate([_invertible(stack, p) for stack in map_slices(p, dim, dim)])
    stack = np.flatnonzero(keep)[:, None, None] // _digit_weights(p, dim, dim) % p
    stack.setflags(write=False)
    return stack


def _invertible(a: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of the (k, d, d) stack a are invertible, by one Gaussian
    elimination of the whole stack in place.  Per column, each matrix takes
    its first nonzero entry at or below the diagonal as pivot, scaled to 1
    through a table of inverses, and clears the column below it.  A matrix
    without such an entry is singular; its zero pivot row leaves the rest of
    its elimination unchanged."""
    k, d, _ = a.shape
    inverses = np.array([0] + [inv_mod(x, p) for x in range(1, p)], dtype=np.int64)
    each = np.arange(k)
    invertible = np.ones(k, dtype=bool)
    for col in range(d):
        nonzero = a[:, col:, col] != 0
        invertible &= nonzero.any(axis=1)
        piv = col + nonzero.argmax(axis=1)
        top = a[each, piv]
        a[each, piv] = a[:, col]
        top *= inverses[top[:, col], None]
        top %= p
        for row in range(col + 1, d):
            a[:, row] -= a[:, row, col, None] * top
            a[:, row] %= p
    return invertible


def elementary_invertibles(p: int, n: int) -> list[np.ndarray]:
    """Transvections, swaps of adjacent coordinates and scalings: generate GL(n, p)."""
    out = []
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = eye.copy()
            m[i, j] = 1
            out.append(m)
    for i in range(n - 1):
        m = eye.copy()
        m[[i, i + 1]] = m[[i + 1, i]]
        out.append(m)
    if p > 2 and n >= 1:
        for a in range(2, p):
            m = eye.copy()
            m[0, 0] = a
            out.append(m)
    return out


def gl_generators(p: int, n: int) -> list[np.ndarray]:
    """At most three matrices generating GL(n, p) (Steinberg, Canad. J. Math.
    14, 1962): I + E_01 and the cyclic shift e_i -> e_{i+1 mod n} when n >= 2,
    and diag(a, 1, ..., 1) with a a primitive root mod p when p > 2; none
    when GL(n, p) is trivial.

    Conjugating I + E_01 by powers of the shift gives every I + E_{i,i+1 mod
    n} (for n = 2 both transvections), and the commutators [I + E_ij, I +
    E_jk] = I + E_ik (i != k) then give every I + E_ik; their powers are
    the elementary transvections, which generate SL(n, p).  The
    scaling has determinant a, which generates F_p^*, so the set generates
    GL(n, p); the group is finite, so also as a monoid."""
    out = []
    if n >= 2:
        eye = np.eye(n, dtype=np.int64)
        transvection = eye.copy()
        transvection[0, 1] = 1
        out += [transvection, np.roll(eye, 1, axis=0)]
    if p > 2 and n >= 1:
        a = next(a for a in range(2, p) if len({pow(a, k, p) for k in range(1, p)}) == p - 1)
        scaling = np.eye(n, dtype=np.int64)
        scaling[0, 0] = a
        out.append(scaling)
    return out


def enumerate_subspaces(p: int, dim: int, budget: int = DEFAULT_MAP_BUDGET) -> list[Subspace]:
    """All subspaces of F_p^dim ordered by dimension then basis entries."""
    total = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
    if total > budget:
        raise BudgetExceeded("subspaces", total, budget)
    out = [Subspace.zero(dim, p)]
    for k in range(1, dim + 1):
        layer = []
        for pivots in itertools.combinations(range(dim), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, dim)
                if j not in pivots
            ]
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                b = np.zeros((k, dim), dtype=np.int64)
                for i, pc in enumerate(pivots):
                    b[i, pc] = 1
                for (i, j), v in zip(free_pos, vals):
                    b[i, j] = v
                layer.append(Subspace(p, dim, k, b.astype(np.uint8).tobytes()))
        layer.sort(key=lambda s: s.basis)
        out.extend(layer)
    return out


def line_vectors(p: int, dim: int) -> np.ndarray:
    """The lines of F_p^dim in enumerate_subspaces order, as the rows of an
    (L, dim) matrix of their RREF vectors: the vectors whose first nonzero
    entry is 1, lexicographically, so a later pivot comes first."""
    blocks = [np.zeros((0, dim), dtype=np.int64)]
    for c in reversed(range(dim)):
        tails = map_stack(p, dim - c - 1, 1)[:, 0]
        block = np.zeros((len(tails), dim), dtype=np.int64)
        block[:, c] = 1
        block[:, c + 1:] = tails
        blocks.append(block)
    return np.concatenate(blocks)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den
