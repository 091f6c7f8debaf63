"""Exact linear algebra over prime fields F_p.

Matrices are dense with entries in {0, ..., p-1}.  ``LinearMap`` and
``Subspace`` are immutable and hashable so they can key action tables and
hom-set caches.  Subspaces are stored through their reduced row-echelon
basis, which makes equality of subspaces plain value equality.

For p = 2 a bit-packed elimination path (rows packed into uint64 words)
backs rref/rank/kernel computations on larger matrices; the dense generic
path and the packed path compute the same canonical forms and the test
suite checks them against each other.

``closure`` is the one closure engine: the smallest family of subspaces that
contains given vectors and is closed under a set of linear maps between them.
Generated subfunctors and module spins both run on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_MAP_BUDGET = 1 << 20

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


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""

    def __init__(self, budget_name: str, needed, allowed):
        super().__init__(f"budget '{budget_name}' exceeded: needs {needed}, allows {allowed}")
        self.budget_name = budget_name
        self.needed = needed
        self.allowed = allowed


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
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
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
    """Reduced row echelon form over F_p, generic dense elimination."""
    a = _as_mat(mat) % p
    m, n = a.shape
    a = a.copy()
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i, col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = inv_mod(int(a[r, col]), p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        for i in range(m):
            if i != r and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[r]) % p
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a, pivots


def rref(mat: np.ndarray, p: int, force: str | None = None) -> tuple[np.ndarray, list[int]]:
    """RREF with pivot columns; dispatches to the packed path for wide GF(2) input."""
    a = _as_mat(mat)
    if force == "bits" or (force is None and p == 2 and a.shape[1] >= _PACK_THRESHOLD):
        if p != 2:
            raise ValueError("packed path requires p = 2")
        return rref_bits(a)
    return rref_dense(a, p)


def rank(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (RREF rows) of the right kernel {v : mat @ v = 0}."""
    a = _as_mat(mat) % p
    m, n = a.shape
    r, pivots = rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[i, j])) % p
    out, _ = rref(basis, p)
    return out


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


def _stacked_nullspace(rows_iter, ncols: int, p: int) -> np.ndarray:
    """Kernel of a tall stacked system, reducing row chunks incrementally."""
    basis, pivots = np.zeros((0, ncols), dtype=np.int64), []
    for chunk in rows_iter:
        basis, pivots, _ = _extend(basis, pivots, np.asarray(chunk, dtype=np.int64).reshape(-1, ncols) % p, p)
        if len(pivots) == ncols:
            break
    return nullspace(basis, p) if basis.size else np.eye(ncols, dtype=np.int64)


def intertwiner_space(shapes: dict, blocks, p: int) -> list[dict]:
    """Basis of the solutions of the equations X_j a = b X_i.

    ``shapes`` maps each unknown's key to its (rows, cols) and fixes the
    column layout of the system.  ``blocks`` yields (i, j, a, b) with
    a: cols_i -> cols_j and b: rows_i -> rows_j; it is consumed lazily and
    left unfinished once the equations force every unknown to zero.  Each
    solution is a dict key -> matrix.
    """
    offsets, total = {}, 0
    for key, (r, c) in shapes.items():
        offsets[key] = total
        total += r * c
    if total == 0:
        return []

    def rows():
        # row-major vec: vec(X a) = (I kron a^T) vec(X), vec(b X) = (b kron I) vec(X)
        for i, j, a, b in blocks:
            (nb_i, na_i), (nb_j, na_j) = shapes[i], shapes[j]
            if nb_j * na_i == 0:
                continue
            block = np.zeros((nb_j * na_i, total), dtype=np.int64)
            block[:, offsets[j]: offsets[j] + nb_j * na_j] = np.kron(np.eye(nb_j, dtype=np.int64), a.T)
            block[:, offsets[i]: offsets[i] + nb_i * na_i] -= np.kron(b, np.eye(na_i, dtype=np.int64))
            yield block % p

    sols = _stacked_nullspace(rows(), total, p)
    return [
        {key: s[offsets[key]: offsets[key] + r * c].reshape(r, c) for key, (r, c) in shapes.items()}
        for s in sols
    ]


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
    increment: the rows of that basis at pivot columns not in ``pivots``."""
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


def nonzero_combinations(basis: np.ndarray, p: int):
    """Every nonzero combination of the rows of basis, coefficients in lexicographic order."""
    for coeffs in itertools.product(range(p), repeat=basis.shape[0]):
        if any(coeffs):
            yield (np.asarray(coeffs, dtype=np.int64) @ basis) % p


def spans_invertible(basis: list[list[np.ndarray]], p: int) -> bool:
    """Whether some combination of the basis elements, each a list of square
    blocks, is invertible in every block.

    At most SCAN_BUDGET nonzero combinations are tried.  When that covers all
    of them the answer is exact either way; otherwise seeded random
    combinations are tried, a hit answers True, and a miss raises
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
    rng = np.random.default_rng(0)
    for _ in range(SCAN_BUDGET):
        if invertible(rng.integers(0, p, size=k)):
            return True
    raise BudgetExceeded("isomorphism search", p**k, SCAN_BUDGET)


def restrict(big: np.ndarray, src_basis: np.ndarray, dst_basis: np.ndarray, p: int) -> np.ndarray:
    """Matrix of big from span(src_basis) to span(dst_basis), both RREF row
    bases; raises when big does not send the one into the other."""
    img = (big @ src_basis.T) % p
    x = img[_pivots(dst_basis), :]
    if not np.array_equal((dst_basis.T @ x) % p, img):
        raise ValueError("subspace is not respected")
    return x


def _pivots(rref_rows: np.ndarray) -> list[int]:
    return [int(np.nonzero(row)[0][0]) for row in rref_rows]


def encode_entries(m: LinearMap) -> str:
    """The entries of m, row-major, as a JSON map-key fragment."""
    return MAP_KEY_SEP.join(str(x) for x in m.arr.flatten())


def decode_entries(text: str, rows: int, cols: int, p: int) -> LinearMap:
    """Inverse of encode_entries; also reads keys written with one character per entry."""
    parts = text.split(MAP_KEY_SEP)
    if len(parts) != rows * cols:
        parts = list(text)
    if len(parts) != rows * cols:
        raise ValueError(f"map key {text!r} does not hold {rows}x{cols} entries")
    return LinearMap.from_array(np.asarray([int(c) for c in parts], dtype=np.int64).reshape(rows, cols), p)


def row_space_contains(rref_rows: np.ndarray, pivots: list[int], vec: np.ndarray, p: int) -> bool:
    """Membership test against an already reduced basis."""
    v = np.asarray(vec, dtype=np.int64) % p
    for i, pc in enumerate(pivots):
        if v[pc]:
            v = (v - v[pc] * rref_rows[i]) % p
    return not v.any()


# ---------------------------------------------------------------------------
# LinearMap


@dataclass(frozen=True)
class LinearMap:
    """Matrix over F_p acting on column vectors: rows x cols, row-major bytes."""

    p: int
    rows: int
    cols: int
    data: bytes

    @staticmethod
    def from_array(arr, p: int) -> "LinearMap":
        a = np.asarray(arr, dtype=np.int64) % p
        if a.ndim != 2:
            a = a.reshape(a.shape[0], -1) if a.size else a.reshape(0, 0)
        return LinearMap(p, a.shape[0], a.shape[1], a.astype(np.uint8).tobytes())

    @staticmethod
    def identity(n: int, p: int) -> "LinearMap":
        return LinearMap.from_array(np.eye(n, dtype=np.int64), p)

    @staticmethod
    def zero(rows: int, cols: int, p: int) -> "LinearMap":
        return LinearMap(p, rows, cols, bytes(rows * cols))

    @property
    def arr(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8).reshape(self.rows, self.cols).astype(np.int64)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("composition mismatch")
        return LinearMap.from_array(self.arr @ other.arr, self.p)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (self.p, self.rows, self.cols) != (other.p, other.rows, other.cols):
            raise ValueError("shape mismatch")
        return LinearMap.from_array(self.arr + other.arr, self.p)

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64).reshape(-1)
        if v.shape[0] != self.cols:
            raise ValueError("vector dimension mismatch")
        return (self.arr @ v) % self.p

    def transpose(self) -> "LinearMap":
        return LinearMap.from_array(self.arr.T, self.p)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        if self.p != other.p:
            raise ValueError("field mismatch")
        return LinearMap.from_array(np.kron(self.arr, other.arr), self.p)

    def direct_sum(self, other: "LinearMap") -> "LinearMap":
        if self.p != other.p:
            raise ValueError("field mismatch")
        out = np.zeros((self.rows + other.rows, self.cols + other.cols), dtype=np.int64)
        out[: self.rows, : self.cols] = self.arr
        out[self.rows:, self.cols:] = other.arr
        return LinearMap.from_array(out, self.p)

    def rref(self) -> tuple["LinearMap", list[int]]:
        r, pivots = rref(self.arr, self.p)
        return LinearMap.from_array(r, self.p), pivots

    def rank(self) -> int:
        return rank(self.arr, self.p)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def inverse(self) -> "LinearMap":
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        aug = np.concatenate([self.arr, np.eye(n, dtype=np.int64)], axis=1)
        r, pivots = rref(aug, self.p)
        if pivots[:n] != list(range(n)):
            raise ValueError("not invertible")
        return LinearMap.from_array(r[:, n:], self.p)

    def key(self):
        return (self.rows, self.cols, self.data)

    def __repr__(self):
        return f"LinearMap(p={self.p}, {self.rows}x{self.cols}, {self.arr.tolist()})"


def block_map(blocks: list[list[LinearMap]], p: int) -> LinearMap:
    """Assemble a block matrix; blocks given row-of-blocks by row-of-blocks."""
    rows = [np.concatenate([b.arr for b in row], axis=1) for row in blocks]
    return LinearMap.from_array(np.concatenate(rows, axis=0), p)


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

    def sum_(self, other: "Subspace") -> "Subspace":
        stacked = np.concatenate([self.basis_arr, other.basis_arr], axis=0)
        return Subspace.from_vectors(stacked, self.p, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient, self.p)
        # x·basis lies in other  <=>  x in the kernel of (ann_other @ basis^T)
        a = self.basis_arr
        ann = other._annihilator()
        ker = nullspace((ann @ a.T) % self.p, self.p)
        vecs = (ker @ a) % self.p
        return Subspace.from_vectors(vecs, self.p, self.ambient)

    def _annihilator(self) -> np.ndarray:
        """Rows w with w @ v = 0 for every v in the subspace."""
        if self.dim == 0:
            return np.eye(self.ambient, dtype=np.int64)
        return nullspace(self.basis_arr, self.p)

    def vectors(self):
        """All vectors of the subspace, deterministic order."""
        yield np.zeros(self.ambient, dtype=np.int64)
        yield from nonzero_combinations(self.basis_arr, self.p)

    def __repr__(self):
        return f"Subspace(p={self.p}, dim {self.dim} of F^{self.ambient}, {self.basis_arr.tolist()})"


def kernel_space(m: LinearMap) -> Subspace:
    """{v : m v = 0} in canonical form."""
    basis = nullspace(m.arr, m.p)
    return Subspace.from_vectors(basis, m.p, m.cols)


def image_space(m: LinearMap) -> Subspace:
    return Subspace.from_vectors(m.arr.T, m.p, m.rows)


def preimage(m: LinearMap, t: Subspace) -> Subspace:
    """m^{-1}(t) as a subspace of the domain."""
    if t.ambient != m.rows:
        raise ValueError("preimage ambient mismatch")
    proj, _ = proj_with_kernel(t)
    return kernel_space(proj @ m)


def pivot_complement(u: Subspace) -> Subspace:
    """Complement spanned by standard basis vectors at non-pivot coordinates."""
    piv = set(u.pivots)
    vecs = [np.eye(u.ambient, dtype=np.int64)[j] for j in range(u.ambient) if j not in piv]
    if not vecs:
        return Subspace.zero(u.ambient, u.p)
    return Subspace.from_vectors(np.stack(vecs), u.p, u.ambient)


def proj_with_kernel(u: Subspace) -> tuple[LinearMap, LinearMap]:
    """Canonical projection P: F^d -> F^{d-k} with kernel u, plus its section.

    P restricted to the pivot complement sends the j-th non-pivot standard
    basis vector to the j-th standard basis vector; the returned section
    embeds F^{d-k} back onto the pivot complement, so P @ section = id.
    """
    p, d, k = u.p, u.ambient, u.dim
    piv = u.pivots
    nonpiv = [j for j in range(d) if j not in piv]
    b = u.basis_arr
    proj = np.zeros((d - k, d), dtype=np.int64)
    for jj, c in enumerate(nonpiv):
        proj[jj, c] = 1
    for i, pc in enumerate(piv):
        for jj, c in enumerate(nonpiv):
            proj[jj, pc] = (-int(b[i, c])) % p
    sect = np.zeros((d, d - k), dtype=np.int64)
    for jj, c in enumerate(nonpiv):
        sect[c, jj] = 1
    return LinearMap.from_array(proj, p), LinearMap.from_array(sect, p)


# ---------------------------------------------------------------------------
# enumeration


def count_maps(p: int, dom_dim: int, cod_dim: int) -> int:
    return p ** (dom_dim * cod_dim)


def enumerate_maps(p: int, dom_dim: int, cod_dim: int, budget: int = DEFAULT_MAP_BUDGET):
    """All linear maps F_p^dom -> F_p^cod, lexicographic on column-major entries."""
    total = count_maps(p, dom_dim, cod_dim)
    if total > budget:
        raise BudgetExceeded("maps", total, budget)
    m, n = cod_dim, dom_dim
    if m * n == 0:
        yield LinearMap.zero(m, n, p)
        return
    for digits in itertools.product(range(p), repeat=m * n):
        arr = np.asarray(digits, dtype=np.int64).reshape(n, m).T  # column-major fill
        yield LinearMap.from_array(arr, p)


def enumerate_injections(p: int, dom_dim: int, cod_dim: int, budget: int = DEFAULT_MAP_BUDGET):
    for f in enumerate_maps(p, dom_dim, cod_dim, budget):
        if f.is_injective():
            yield f


def enumerate_invertibles(p: int, dim: int, budget: int = DEFAULT_MAP_BUDGET):
    for f in enumerate_maps(p, dim, dim, budget):
        if f.is_invertible():
            yield f


@lru_cache(maxsize=None)
def general_linear(p: int, dim: int) -> tuple[LinearMap, ...]:
    return tuple(enumerate_invertibles(p, dim))


def enumerate_vectors(p: int, dim: int):
    for digits in itertools.product(range(p), repeat=dim):
        yield np.asarray(digits, dtype=np.int64)


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


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den
