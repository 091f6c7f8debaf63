"""Routes gf has replaced, kept as oracles: the elimination that updated one
row per numpy call, the oracle of gf.rref_dense; the kernel basis that
reduced twice; and the intertwiner solver that assembled Kronecker rows, the
oracle of gf.intertwiner_space and of the stacked systems in the tests.  Also
the helpers only tests use: injections, all vectors, subspace intersection."""

import itertools

import numpy as np

from functorlab.gf import DEFAULT_MAP_BUDGET, Subspace, _as_mat, _extend, enumerate_maps, inv_mod, rank, rref


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


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (RREF rows) of the right kernel {v : mat @ v = 0}."""
    a = _as_mat(mat) % p
    m, n = a.shape
    r, pivots = rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.eye(n, dtype=np.int64)[free]
    basis[:, pivots] = -r[: len(pivots), free].T % p
    out, _ = rref(basis, p)
    return out


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


def enumerate_injections(p: int, dom_dim: int, cod_dim: int, budget: int = DEFAULT_MAP_BUDGET):
    for f in enumerate_maps(p, dom_dim, cod_dim, budget):
        if rank(f, p) == dom_dim:
            yield f


def enumerate_vectors(p: int, dim: int):
    for digits in itertools.product(range(p), repeat=dim):
        yield np.asarray(digits, dtype=np.int64)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """u ∩ w in canonical form."""
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ambient, u.p)
    # x·basis lies in w  <=>  x in the kernel of (ann_w @ basis^T), ann_w the
    # rows annihilating w
    a = u.basis_arr
    ann = nullspace(w.basis_arr, u.p)
    ker = nullspace((ann @ a.T) % u.p, u.p)
    return Subspace.from_vectors((ker @ a) % u.p, u.p, u.ambient)
