"""Vector-space-valued functors on an element-category skeleton.

A ``VecFunctor`` stores one value dimension per skeletal object inside its
window and produces the matrix of any skeletal morphism on demand (rules are
closures; results are cached).  Everything a query touches outside the window
raises instead of guessing.

The calculus implemented here: the difference functor (kernel of the map
induced by dropping one trivial coordinate), iterated differences, general
cross effects with their symmetric-group action, polynomial degree
certificates, greatest polynomial subfunctors, the restriction/extension
comparison with functors on (regular classes) x (plain spaces), the balanced
tensor construction attached to a symmetric-group module functor, and
natural-transformation spaces as kernels of assembled linear systems.
Generated subfunctors come from ``gf.closure``, the one closure engine, run
over the skeleton's generating morphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gf import (
    BudgetExceeded,
    LinearMap,
    Subspace,
    _stacked_nullspace,
    closure,
    decode_entries,
    encode_entries,
    intertwiner_space,
    nullspace,
    proj_with_kernel,
    rank,
    restrict,
    rref,
)
from .elcat import Skeleton, SkObject
from .modrep import GroupModule, FiniteGroup


class WindowExceeded(RuntimeError):
    """A query needs functor values outside the stored window."""


# ---------------------------------------------------------------------------
# plain vector-space functors (inputs for the forgetful lift)


class TensorPower:
    """V -> V^{tensor n}."""

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        self.name = f"T^{n}"

    def dim(self, d: int) -> int:
        return d**self.n

    def mat(self, gamma: LinearMap) -> np.ndarray:
        out = np.eye(1, dtype=np.int64)
        for _ in range(self.n):
            out = np.kron(out, gamma.arr)
        return out % self.p


class ConstantSpace:
    def __init__(self, dim: int, p: int):
        self._dim, self.p = dim, p
        self.name = f"const^{dim}"

    def dim(self, d: int) -> int:
        return self._dim

    def mat(self, gamma: LinearMap) -> np.ndarray:
        return np.eye(self._dim, dtype=np.int64)


class FunctionSpace:
    """V -> F_p^{Hom(V, target)}, the standard injective of plain functors."""

    def __init__(self, target_dim: int, p: int):
        from .gf import enumerate_maps

        self.target_dim, self.p = target_dim, p
        self.name = f"I_{target_dim}"
        self._maps: dict[int, list[LinearMap]] = {}
        self._pos: dict[int, dict[bytes, int]] = {}
        self._enumerate = enumerate_maps

    def _table(self, d: int):
        if d not in self._maps:
            ms = list(self._enumerate(self.p, d, self.target_dim))
            self._maps[d] = ms
            self._pos[d] = {m.data: i for i, m in enumerate(ms)}
        return self._maps[d]

    def dim(self, d: int) -> int:
        return len(self._table(d))

    def mat(self, gamma: LinearMap) -> np.ndarray:
        src = self._table(gamma.cols)
        dst = self._table(gamma.rows)
        out = np.zeros((len(dst), len(src)), dtype=np.int64)
        pos = self._pos[gamma.cols]
        for j, g in enumerate(dst):
            out[j, pos[(g @ gamma).data]] = 1
        return out


# ---------------------------------------------------------------------------
# VecFunctor


class VecFunctor:
    def __init__(self, sk: Skeleton, window: int, dims: dict[int, int], rule, name: str = "F"):
        self.sk = sk
        self.window = window
        if window > sk.window:
            raise WindowExceeded(f"window {window} exceeds the skeleton window {sk.window}")
        self.name = name
        self._dims = dims
        self._rule = rule
        self._cache: dict = {}

    # -- structure -----------------------------------------------------------

    def object_indices(self) -> list[int]:
        return [o.index for o in self.sk.objects if o.dim <= self.window]

    def dim(self, i: int) -> int:
        if self.sk.objects[i].dim > self.window:
            raise WindowExceeded(f"object {i} outside window {self.window}")
        return self._dims[i]

    def mat(self, i: int, j: int, gamma: LinearMap) -> np.ndarray:
        key = (i, j, gamma.data)
        hit = self._cache.get(key)
        if hit is None:
            if self.sk.objects[i].dim > self.window or self.sk.objects[j].dim > self.window:
                raise WindowExceeded("morphism endpoints outside window")
            hit = np.asarray(self._rule(i, j, gamma), dtype=np.int64) % self.p
            if hit.shape != (self.dim(j), self.dim(i)):
                raise ValueError(
                    f"{self.name}: matrix shape {hit.shape} at {i}->{j}, expected {(self.dim(j), self.dim(i))}"
                )
            self._cache[key] = hit
        return hit

    @property
    def p(self) -> int:
        return self.sk.p

    def total_dim(self) -> int:
        return sum(self.dim(i) for i in self.object_indices())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dims_list(self) -> list[tuple[int, int, int]]:
        return [
            (self.sk.objects[i].rclass, self.sk.objects[i].vdim, self.dim(i))
            for i in self.object_indices()
        ]

    # -- evaluation off the skeleton ------------------------------------------

    def value_dim_at(self, o) -> int:
        idx, _ = self.sk.rep_of(o)
        return self.dim(idx)

    def map_at(self, src_o, dst_o, gamma: LinearMap) -> np.ndarray:
        """Matrix of an arbitrary morphism, routed through the iso witnesses."""
        i, wi = self.sk.rep_of(src_o)
        j, wj = self.sk.rep_of(dst_o)
        skel = wj.inverse() @ gamma @ wi
        return self.mat(i, j, skel)

    # -- validation ------------------------------------------------------------

    def validate(self, pair_budget: int = 200_000, seed: int = 0) -> bool:
        idxs = self.object_indices()
        for i in idxs:
            ident = self.sk.identity(i)
            if not np.array_equal(self.mat(i, i, ident), np.eye(self.dim(i), dtype=np.int64)):
                return False
        pairs = []
        total = 0
        for i in idxs:
            for j in idxs:
                nij = len(self.sk.hom(i, j))
                for k in idxs:
                    total += nij * len(self.sk.hom(j, k))
        exhaustive = total <= pair_budget
        rng = np.random.default_rng(seed)
        for i in idxs:
            for j in idxs:
                homs1 = self.sk.hom(i, j)
                for k in idxs:
                    homs2 = self.sk.hom(j, k)
                    if exhaustive:
                        it = itertools.product(homs1, homs2)
                    else:
                        count = max(1, pair_budget // max(1, len(idxs) ** 3))
                        it = (
                            (homs1[int(rng.integers(0, len(homs1)))], homs2[int(rng.integers(0, len(homs2)))])
                            for _ in range(min(count, len(homs1) * len(homs2)))
                        )
                    for a, b in it:
                        lhs = (self.mat(j, k, b) @ self.mat(i, j, a)) % self.p
                        if not np.array_equal(lhs, self.mat(i, k, b @ a)):
                            return False
        return True


# -- constructors -------------------------------------------------------------


def forgetful_lift(sk: Skeleton, F0, window: int | None = None) -> VecFunctor:
    """Lift of a plain vector-space functor along the forgetful map (W, psi) -> W."""
    window = sk.window if window is None else window
    dims = {o.index: F0.dim(o.dim) for o in sk.objects if o.dim <= window}
    return VecFunctor(sk, window, dims, lambda i, j, g: F0.mat(g), name=f"U({F0.name})")


def constant_functor(sk: Skeleton, dim: int = 1, window: int | None = None) -> VecFunctor:
    return forgetful_lift(sk, ConstantSpace(dim, sk.p), window)


def injective_cogen(sk: Skeleton, target: int, window: int | None = None) -> VecFunctor:
    """F_p^{hom(-, target)} for a skeletal object index."""
    window = sk.window if window is None else window
    dims = {
        o.index: len(sk.hom(o.index, target)) for o in sk.objects if o.dim <= window
    }

    def rule(i, j, gamma):
        src = sk.hom(i, target)
        dst = sk.hom(j, target)
        pos = {m.data: t for t, m in enumerate(src)}
        out = np.zeros((len(dst), len(src)), dtype=np.int64)
        for r, delta in enumerate(dst):
            out[r, pos[(delta @ gamma).data]] = 1
        return out

    return VecFunctor(sk, window, dims, rule, name=f"I[{target}]")


def projective_gen(sk: Skeleton, source: int, window: int | None = None) -> VecFunctor:
    """F_p[hom(source, -)]."""
    window = sk.window if window is None else window
    dims = {o.index: len(sk.hom(source, o.index)) for o in sk.objects if o.dim <= window}

    def rule(i, j, gamma):
        src = sk.hom(source, i)
        dst = sk.hom(source, j)
        pos = {m.data: t for t, m in enumerate(dst)}
        out = np.zeros((len(dst), len(src)), dtype=np.int64)
        for c, delta in enumerate(src):
            out[pos[(gamma @ delta).data], c] = 1
        return out

    return VecFunctor(sk, window, dims, rule, name=f"P[{source}]")


def direct_sum(F: VecFunctor, G: VecFunctor, name: str | None = None) -> VecFunctor:
    window = min(F.window, G.window)
    dims = {i: F.dim(i) + G.dim(i) for i in F.object_indices() if F.sk.objects[i].dim <= window}

    def rule(i, j, gamma):
        a, b = F.mat(i, j, gamma), G.mat(i, j, gamma)
        out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
        out[: a.shape[0], : a.shape[1]] = a
        out[a.shape[0]:, a.shape[1]:] = b
        return out

    return VecFunctor(F.sk, window, dims, rule, name=name or f"{F.name}+{G.name}")


# ---------------------------------------------------------------------------
# the difference functor


def delta_bar(F: VecFunctor) -> VecFunctor:
    """Kernel of the map induced by dropping the extra trivial coordinate.

    The output lives on a window one smaller; its value at (r, v) is the
    kernel of F(projection (r, v+1) -> (r, v)) with the action induced by
    gamma + id on the extra coordinate.
    """
    sk = F.sk
    window = F.window - 1
    if window < 0:
        raise WindowExceeded("no room to difference: window is empty")
    bases: dict[int, np.ndarray] = {}
    dims: dict[int, int] = {}
    for o in sk.objects:
        if o.dim > window:
            continue
        up = sk.index[(o.rclass, o.vdim + 1)]
        proj = sk.proj_one(o.rclass, o.vdim)
        ker = nullspace(F.mat(up, o.index, proj), F.p)
        bases[o.index] = ker
        dims[o.index] = ker.shape[0]

    def rule(i, j, gamma):
        oi, oj = sk.objects[i], sk.objects[j]
        up_i = sk.index[(oi.rclass, oi.vdim + 1)]
        up_j = sk.index[(oj.rclass, oj.vdim + 1)]
        gplus = gamma.direct_sum(LinearMap.identity(1, F.p))
        return restrict(F.mat(up_i, up_j, gplus), bases[i], bases[j], F.p)

    out = VecFunctor(sk, window, dims, rule, name=f"D({F.name})")
    out.bases = bases  # inclusion data for restriction of transformations
    return out


def delta_bar_power(F: VecFunctor, k: int) -> VecFunctor:
    out = F
    for _ in range(k):
        out = delta_bar(out)
    return out


def polynomial_degree(F: VecFunctor, max_degree: int | None = None) -> tuple[int | None, int]:
    """Smallest n with vanishing (n+1)-st difference, certified on the window.

    Returns (degree, window-on-which-vanishing-was-checked); the zero functor
    reports degree -1.  Degree None means the window shrank to nothing before
    the difference chain vanished, so the answer is "> the checkable range".
    """
    G = F
    k = 0
    while True:
        if G.is_zero():
            return k - 1, G.window
        if G.window == 0 or (max_degree is not None and k > max_degree):
            return None, G.window
        G = delta_bar(G)
        k += 1


# ---------------------------------------------------------------------------
# cross effects


@dataclass
class CrossEffect:
    """cr_n F at a base object with blocks of the given dimensions.

    ``basis`` rows live in the value of F at the enlarged object; when every
    block has dimension one the symmetric group acts by permuting the added
    coordinates.
    """

    F: VecFunctor
    base: int
    dims: tuple[int, ...]
    plus_index: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def sigma_matrix(self, perm: tuple[int, ...]) -> np.ndarray:
        """Left action of a permutation of the added one-dimensional blocks."""
        if any(d != 1 for d in self.dims):
            raise ValueError("symmetric action needs one-dimensional blocks")
        sk = self.F.sk
        o = sk.objects[self.plus_index]
        n = len(self.dims)
        base_v = sk.objects[self.base].vdim
        full_perm = tuple(range(base_v)) + tuple(base_v + perm[t] for t in range(n))
        g = sk.perm_trivial(o.rclass, o.vdim, full_perm)
        big = self.F.mat(self.plus_index, self.plus_index, g)
        return restrict(big, self.basis, self.basis, self.F.p)


def cross_effect(F: VecFunctor, base: int, dims: tuple[int, ...]) -> CrossEffect:
    """Joint kernel of the block-omission maps at base + (X_1 + ... + X_n)."""
    sk = F.sk
    o = sk.objects[base]
    total = sum(dims)
    if o.dim + total > F.window:
        raise WindowExceeded("cross effect exceeds the window")
    plus = sk.index[(o.rclass, o.vdim + total)]
    rows = []
    offs = [o.vdim]
    for d in dims:
        offs.append(offs[-1] + d)
    for t, d in enumerate(dims):
        coords = tuple(range(offs[t], offs[t] + d))
        dropped = sk.index[(o.rclass, o.vdim + total - d)]
        pi = sk.drop_coords(o.rclass, o.vdim + total, coords)
        rows.append(F.mat(plus, dropped, pi))
    stacked = np.concatenate(rows, axis=0) if rows else np.zeros((0, F.dim(plus)), dtype=np.int64)
    return CrossEffect(F, base, tuple(dims), plus, nullspace(stacked, F.p))


def delta_equals_cross(F: VecFunctor, base: int, n: int) -> bool:
    """Iterated differences against the n-fold cross effect at one-dim blocks."""
    dk = delta_bar_power(F, n)
    if F.sk.objects[base].dim > dk.window:
        raise WindowExceeded("object outside the differenced window")
    return dk.dim(base) == cross_effect(F, base, (1,) * n).dim


# ---------------------------------------------------------------------------
# subfunctors, quotients, generated subfunctors, p_n


@dataclass
class SubFunctor:
    parent: VecFunctor
    bases: dict[int, np.ndarray]  # RREF rows per object index

    def dim(self, i: int) -> int:
        return self.bases[i].shape[0]

    def total_dim(self) -> int:
        return sum(b.shape[0] for b in self.bases.values())

    def is_stable(self, generators=None) -> bool:
        F = self.parent
        gens = F.sk.generating_morphisms() if generators is None else generators
        for i, j, g in gens:
            if F.sk.objects[i].dim > F.window or F.sk.objects[j].dim > F.window or not self.bases[i].shape[0]:
                continue
            if not _spans(self.bases[j], (self.bases[i] @ F.mat(i, j, g).T) % F.p, F.p):
                return False
        return True

    def to_functor(self, name: str | None = None) -> VecFunctor:
        F = self.parent
        dims = {i: b.shape[0] for i, b in self.bases.items()}

        def rule(i, j, gamma):
            return restrict(F.mat(i, j, gamma), self.bases[i], self.bases[j], F.p)

        out = VecFunctor(F.sk, F.window, dims, rule, name=name or f"sub({F.name})")
        out.bases = self.bases
        return out

    def contains(self, other: "SubFunctor") -> bool:
        return all(_spans(self.bases[i], b, self.parent.p) for i, b in other.bases.items())


def _spans(basis: np.ndarray, rows: np.ndarray, p: int) -> bool:
    """Whether the rows lie in the span of the independent rows of basis: one stacked rank test."""
    return not rows.shape[0] or rank(np.concatenate([basis, rows]), p) == basis.shape[0]


def zero_subfunctor(F: VecFunctor) -> SubFunctor:
    return SubFunctor(F, {i: np.zeros((0, F.dim(i)), dtype=np.int64) for i in F.object_indices()})


def full_subfunctor(F: VecFunctor) -> SubFunctor:
    return SubFunctor(
        F, {i: np.eye(F.dim(i), dtype=np.int64) for i in F.object_indices()}
    )


def generated_subfunctor(F: VecFunctor, start: int, vectors) -> SubFunctor:
    """Smallest morphism-stable family of subspaces containing the vectors."""
    return _closure_subfunctor(F, {start: np.asarray(vectors, dtype=np.int64).reshape(-1, F.dim(start))})


def _closure_subfunctor(F: VecFunctor, starts: dict) -> SubFunctor:
    """``gf.closure`` of the start vectors (object index -> rows) under the
    generating morphisms, reading each matrix only when its source has new
    vectors; every skeletal morphism is a composite of those, so the spans
    agree with images under full hom-sets."""
    dims = {i: F.dim(i) for i in F.object_indices()}
    edges = [(i, j, partial(F.mat, i, j, g)) for (i, j, g) in F.sk.generating_morphisms() if i in dims and j in dims]
    return SubFunctor(F, closure(dims, edges, starts, F.p))


def quotient_functor(F: VecFunctor, sub: SubFunctor, name: str | None = None) -> VecFunctor:
    projs, sects, dims = {}, {}, {}
    for i in F.object_indices():
        space = Subspace.from_vectors(sub.bases[i], F.p, F.dim(i)) if sub.bases[i].size else Subspace.zero(F.dim(i), F.p)
        pr, se = proj_with_kernel(space)
        projs[i], sects[i] = pr.arr, se.arr
        dims[i] = F.dim(i) - space.dim

    def rule(i, j, gamma):
        big = F.mat(i, j, gamma)
        out = (projs[j] @ big @ sects[i]) % F.p
        if sub.bases[i].size:
            if ((projs[j] @ big @ sub.bases[i].T) % F.p).any():
                raise ValueError("subfunctor is not stable; quotient undefined")
        return out

    out = VecFunctor(F.sk, F.window, dims, rule, name=name or f"{F.name}/sub")
    out.quotient_projs = projs
    out.quotient_sects = sects
    return out


def p_n(F: VecFunctor, n: int, known_degree_bound: int | None = None) -> SubFunctor:
    """Greatest subfunctor of polynomial degree <= n, computed object by object.

    An element x of F(o) generates a degree <= n subfunctor exactly when the
    (n+1)-st difference of the generated map out of the representable functor
    at o vanishes; that condition is linear in x, so each value of p_n(F) is
    the kernel of one assembled system.

    Constraint objects run over everything with n+1 dimensions of headroom.
    When the caller certifies deg F <= n+1 the differences of subfunctors of
    F have degree <= 0, and degree-0 functors vanish everywhere once they
    vanish at the class representatives, so representatives alone suffice.
    """
    sk = F.sk
    k = n + 1
    fast = known_degree_bound is not None and known_degree_bound <= k
    constraint_objs = []
    for o in sk.objects:
        if o.dim + k > F.window:
            continue
        if fast and o.vdim != 0:
            continue
        constraint_objs.append(o)
    if not constraint_objs:
        raise WindowExceeded(f"window {F.window} too small to test degree {n}")

    bases = {}
    for i in F.object_indices():
        if F.dim(i) == 0:
            bases[i] = np.zeros((0, 0), dtype=np.int64)
            continue

        def rows():
            for o in constraint_objs:
                plus = sk.index[(o.rclass, o.vdim + k)]
                homs = sk.hom(i, plus)
                if not homs:
                    continue
                pos = {g.data: t for t, g in enumerate(homs)}
                omission_rows = []
                for t in range(k):
                    coords = (o.vdim + t,)
                    pi = sk.drop_coords(o.rclass, o.vdim + k, coords)
                    buckets: dict[bytes, list[int]] = {}
                    for g in homs:
                        buckets.setdefault((pi @ g).data, []).append(pos[g.data])
                    for members in buckets.values():
                        row = np.zeros(len(homs), dtype=np.int64)
                        row[members] = 1
                        omission_rows.append(row)
                omega = np.stack(omission_rows) if omission_rows else np.zeros((0, len(homs)), dtype=np.int64)
                romega, piv = rref(omega, F.p)
                romega = romega[: len(piv)]
                # stack of F-matrices over the hom-set
                G = np.stack([F.mat(i, plus, g) for g in homs])  # (H, out, in)
                H, nout, nin = G.shape
                flat = G.reshape(H, nout * nin)
                lift = (romega.T @ flat[piv].reshape(len(piv), nout * nin)) % F.p
                E = (flat - lift) % F.p
                yield E.reshape(H * nout, nin)

        bases[i] = _stacked_nullspace(rows(), F.dim(i), F.p)

    out = SubFunctor(F, bases)
    if not out.is_stable():
        raise ValueError("greatest polynomial subfunctor came out unstable; window too small")
    # the degree test ran against these objects only; a bigger window could
    # cut the result further, so the certificate names its range
    out.constraint_objects = [(o.rclass, o.vdim) for o in constraint_objs]
    out.certified_headroom = k
    return out


# ---------------------------------------------------------------------------
# functors on (regular classes) x (plain spaces) and the two transforms


class ProductFunctor:
    """Functor on the product of the regular-class category with plain spaces."""

    def __init__(self, sk: Skeleton, window: int, dims: dict[int, int], rule, name: str = "G"):
        self.sk = sk
        self.window = window
        self._dims = dims
        self._rule = rule  # (i, j, f, h) -> matrix
        self.name = name
        self._cache: dict = {}

    def dim(self, i: int) -> int:
        return self._dims[i]

    def object_indices(self):
        return [o.index for o in self.sk.objects if o.dim <= self.window]

    def mat(self, i: int, j: int, f: LinearMap, h: LinearMap) -> np.ndarray:
        key = (i, j, f.data, h.data)
        hit = self._cache.get(key)
        if hit is None:
            hit = np.asarray(self._rule(i, j, f, h), dtype=np.int64) % self.sk.p
            self._cache[key] = hit
        return hit


def O_transform(F: VecFunctor) -> ProductFunctor:
    """Restriction to block-diagonal morphisms, indexed by (class, trivial dim)."""
    sk = F.sk
    dims = {i: F.dim(i) for i in F.object_indices()}

    def rule(i, j, f, h):
        gamma = sk._diag(sk.objects[i], f, h)
        return F.mat(i, j, gamma)

    return ProductFunctor(sk, F.window, dims, rule, name=f"O({F.name})")


def E_transform(G: ProductFunctor, name: str | None = None) -> VecFunctor:
    """Extension along the splitting: the regular block and the trivial block
    act, the mixing block is forgotten."""
    sk = G.sk
    dims = {i: G.dim(i) for i in G.object_indices()}

    def rule(i, j, gamma):
        f, g, h, zero = sk.blocks(i, j, gamma)
        if not zero:
            raise ValueError("not a skeletal morphism")
        return G.mat(i, j, f, h)

    return VecFunctor(sk, G.window, dims, rule, name=name or f"E({G.name})")


def projection_chain(sk: Skeleton, r: int, v: int) -> LinearMap:
    """The composite projection (r, v) -> (r, 0) dropping all trivial coordinates."""
    comp = LinearMap.identity(sk.objects[sk.index[(r, 0)]].dim, sk.p)
    for t in range(v):
        comp = comp @ sk.proj_one(r, t)
    return comp


def bar_extension(F: VecFunctor, name: str | None = None) -> VecFunctor:
    """Extend the restriction of F to the regular classes by the class value:
    (r, v) gets the value at (r, 0), morphisms act through their regular block.

    For a degree-0 functor the projection chains are natural isomorphisms
    onto the original (the round trip of the degree-0 equivalence)."""
    sk = F.sk
    dims = {o.index: F.dim(sk.index[(o.rclass, 0)]) for o in sk.objects if o.dim <= F.window}

    def rule(i, j, gamma):
        f, _, _, zero = sk.blocks(i, j, gamma)
        if not zero:
            raise ValueError("not a skeletal morphism")
        return F.mat(sk.index[(sk.objects[i].rclass, 0)], sk.index[(sk.objects[j].rclass, 0)], f)

    return VecFunctor(sk, F.window, dims, rule, name=name or f"bar({F.name})")


def bar_roundtrip_iso(F: VecFunctor) -> NatTransform:
    """The projection-chain transformation F -> bar_extension(F); a natural
    isomorphism exactly when F has degree 0 on the window."""
    sk = F.sk
    B = bar_extension(F)
    mats = {}
    for o in sk.objects:
        if o.dim > F.window:
            continue
        chain = projection_chain(sk, o.rclass, o.vdim)
        mats[o.index] = F.mat(o.index, sk.index[(o.rclass, 0)], chain)
    return NatTransform(F, B, mats)


# ---------------------------------------------------------------------------
# symmetric-group module functors on the regular classes


class SigmaNFunctor:
    """Functor from the regular classes to modules over the symmetric group.

    Values sit on class representatives; the class maps must commute with the
    symmetric action (validated on construction).
    """

    def __init__(self, sk: Skeleton, n: int, dims: dict[int, int], sigma_gens, rmap, name: str = "M"):
        self.sk = sk
        self.n = n
        self.dims = dims  # class index -> dim
        self._sigma_gens = sigma_gens  # (r, t) -> matrix of transposition (t, t+1)
        self._rmap = rmap  # (r1, r2, f) -> matrix
        self.name = name
        self._perm_cache: dict = {}

    @property
    def p(self):
        return self.sk.p

    def classes(self) -> list[int]:
        return sorted(self.dims)

    def dim(self, r: int) -> int:
        return self.dims[r]

    def sigma_gen(self, r: int, t: int) -> np.ndarray:
        return self._sigma_gens(r, t)

    def rmap(self, r1: int, r2: int, f: LinearMap) -> np.ndarray:
        return np.asarray(self._rmap(r1, r2, f), dtype=np.int64) % self.p

    def perm_action(self, r: int, perm: tuple[int, ...]) -> np.ndarray:
        key = (r, perm)
        hit = self._perm_cache.get(key)
        if hit is None:
            hit = np.eye(self.dims[r], dtype=np.int64)
            for t in _adjacent_transposition_word(perm):
                hit = (self.sigma_gen(r, t) @ hit) % self.p
            self._perm_cache[key] = hit
        return hit

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def validate(self) -> bool:
        n = self.n
        for r in self.classes():
            d = self.dims[r]
            eye = np.eye(d, dtype=np.int64)
            for t in range(n - 1):
                s = self.sigma_gen(r, t)
                if not np.array_equal((s @ s) % self.p, eye):
                    return False
                if t + 1 < n - 1:
                    s2 = self.sigma_gen(r, t + 1)
                    lhs = (s @ s2 @ s) % self.p
                    rhs = (s2 @ s @ s2) % self.p
                    if not np.array_equal(lhs, rhs):
                        return False
            for t in range(n - 1):
                for u in range(t + 2, n - 1):
                    s, s2 = self.sigma_gen(r, t), self.sigma_gen(r, u)
                    if not np.array_equal((s @ s2) % self.p, (s2 @ s) % self.p):
                        return False
        # class maps commute with the symmetric action
        for r1 in self.classes():
            for r2 in self.classes():
                for f in self.sk.rector_hom(r1, r2):
                    m = self.rmap(r1, r2, f)
                    for t in range(n - 1):
                        lhs = (m @ self.sigma_gen(r1, t)) % self.p
                        rhs = (self.sigma_gen(r2, t) @ m) % self.p
                        if not np.array_equal(lhs, rhs):
                            return False
        return True


def _adjacent_transposition_word(perm: tuple[int, ...]) -> list[int]:
    """perm as a product of adjacent transpositions, applied right to left."""
    arr = list(perm)
    word = []
    n = len(arr)
    for _ in range(n * n):
        done = True
        for t in range(n - 1):
            if arr[t] > arr[t + 1]:
                arr[t], arr[t + 1] = arr[t + 1], arr[t]
                word.append(t)
                done = False
        if done:
            break
    # word applied to identity rebuilds perm^{-1}; reverse for perm
    return list(reversed(word))


def sigma_functor_from_module(sk: Skeleton, rclass: int, n: int, M: GroupModule, name: str | None = None) -> SigmaNFunctor:
    """Place a module over Aut(class) x Sym(n) on a single class.

    The group of M must be the product of the class automorphism group (as a
    matrix group, labels are the maps) with Sym(n).
    """
    dims = {r: (M.dim if r == rclass else 0) for r in range(len(sk.rector.classes))}
    aut = sk.rector.aut_groups[rclass]
    aut_labels = {g.data: g for g in aut}

    def sigma_gens(r, t):
        if r != rclass:
            return np.zeros((0, 0), dtype=np.int64)
        ident = next(g for g in aut if g.is_invertible() and g == LinearMap.identity(g.rows, sk.p))
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        label = (ident, tuple(perm))
        return M.element_matrix(M.group.index[label])

    def rmap(r1, r2, f):
        if r1 == rclass and r2 == rclass:
            label = (aut_labels[f.data], tuple(range(n)))
            return M.element_matrix(M.group.index[label])
        return np.zeros((dims[r2], dims[r1]), dtype=np.int64)

    return SigmaNFunctor(sk, n, dims, sigma_gens, rmap, name=name or f"{M.name}@{rclass}")


def aut_sigma_group(sk: Skeleton, rclass: int, n: int) -> FiniteGroup:
    """Aut(class representative) x Sym(n), labels (map, permutation)."""
    aut = FiniteGroup.from_mul(
        sorted(sk.rector.aut_groups[rclass], key=lambda m: m.data), lambda a, b: a @ b, name=f"Aut{rclass}"
    )
    sym = FiniteGroup.symmetric(n)
    return FiniteGroup.product(aut, sym)


# ---------------------------------------------------------------------------
# the balanced tensor construction


class TensorSigma(VecFunctor):
    """(trivial block)^{tensor n} balanced over Sym(n) with a module functor.

    Value at (r, v): the coinvariant quotient of (F^v)^{x n} (x) M(r) by the
    span of (x.sigma)(x)m - x(x)(sigma m); morphisms act through their
    diagonal blocks.
    """

    def __init__(self, sk: Skeleton, M: SigmaNFunctor, n: int, window: int | None = None):
        self.M = M
        self.n = n
        window = sk.window if window is None else window
        self._proj: dict[int, np.ndarray] = {}
        self._sect: dict[int, np.ndarray] = {}
        dims = {}
        for o in sk.objects:
            if o.dim > window:
                continue
            pr, se = self._build_quotient(sk, o)
            self._proj[o.index], self._sect[o.index] = pr, se
            dims[o.index] = pr.shape[0]
        super().__init__(sk, window, dims, self._tensor_rule, name=f"T^{n}(x){M.name}")

    def _build_quotient(self, sk: Skeleton, o: SkObject):
        p = sk.p
        v = o.vdim
        mdim = self.M.dim(o.rclass)
        plain = (v**self.n) * mdim
        if plain == 0:
            return np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
        rel_rows = []
        idx = list(itertools.product(range(v), repeat=self.n))
        pos = {J: t for t, J in enumerate(idx)}
        for t in range(self.n - 1):
            perm = list(range(self.n))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            smat = self.M.sigma_gen(o.rclass, t)
            for J in idx:
                K = tuple(J[perm[u]] for u in range(self.n))
                for b in range(mdim):
                    row = np.zeros(plain, dtype=np.int64)
                    row[pos[K] * mdim + b] = (row[pos[K] * mdim + b] + 1) % p
                    for c in range(mdim):
                        if smat[c, b]:
                            row[pos[J] * mdim + c] = (row[pos[J] * mdim + c] - smat[c, b]) % p
                    if row.any():
                        rel_rows.append(row)
        rel = np.stack(rel_rows) if rel_rows else np.zeros((0, plain), dtype=np.int64)
        space = Subspace.from_vectors(rel, p, plain) if rel.size else Subspace.zero(plain, p)
        pr, se = proj_with_kernel(space)
        return pr.arr, se.arr

    def _tensor_rule(self, i, j, gamma):
        sk = self.sk
        f, g, h, zero = sk.blocks(i, j, gamma)
        if not zero:
            raise ValueError("not a skeletal morphism")
        kron = np.eye(1, dtype=np.int64)
        for _ in range(self.n):
            kron = np.kron(kron, h.arr)
        rm = self.M.rmap(sk.objects[i].rclass, sk.objects[j].rclass, f)
        plain = np.kron(kron, rm) % self.p
        return (self._proj[j] @ plain @ self._sect[i]) % self.p

    def plain_to_quotient(self, i: int) -> np.ndarray:
        return self._proj[i]

    def quotient_to_plain(self, i: int) -> np.ndarray:
        return self._sect[i]


def tensor_sigma_n(sk: Skeleton, M: SigmaNFunctor, n: int, window: int | None = None) -> TensorSigma:
    return TensorSigma(sk, M, n, window)


# ---------------------------------------------------------------------------
# the difference tower as a module functor, unit and counit


def delta_n_sigma(F: VecFunctor, n: int, name: str | None = None) -> SigmaNFunctor:
    """The n-fold cross effect at the class representatives, with its
    symmetric action and class maps."""
    sk = F.sk
    crs: dict[int, CrossEffect] = {}
    dims = {}
    for r, rep in enumerate(sk.rector.classes):
        base = sk.index[(r, 0)]
        if rep.dim + n > F.window:
            raise WindowExceeded("class representative lacks headroom")
        crs[r] = cross_effect(F, base, (1,) * n) if n else CrossEffect(
            F, base, (), base, np.eye(F.dim(base), dtype=np.int64)
        )
        dims[r] = crs[r].dim

    def sigma_gens(r, t):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        return crs[r].sigma_matrix(tuple(perm))

    def rmap(r1, r2, f):
        plus1 = sk.index[(r1, n)]
        plus2 = sk.index[(r2, n)]
        gamma = sk._diag(sk.objects[plus1], f, LinearMap.identity(n, sk.p))
        big = F.mat(plus1, plus2, gamma)
        return restrict(big, crs[r1].basis, crs[r2].basis, sk.p)

    out = SigmaNFunctor(sk, n, dims, sigma_gens, rmap, name=name or f"D^{n}({F.name})")
    out.cross_effects = crs
    return out


def unit_map(M: SigmaNFunctor, TM: TensorSigma, DTM: SigmaNFunctor, r: int) -> np.ndarray:
    """M(r) -> n-fold difference of the balanced tensor at r, sending m to the
    class of (first basis tensor) (x) m."""
    sk = M.sk
    n = TM.n
    mdim = M.dim(r)
    plus = sk.index[(r, n)]
    idx_id = 0
    # the basis tensor e_0 (x) e_1 (x) ... inside (F^n)^{(x) n}
    for t, J in enumerate(itertools.product(range(n), repeat=n)):
        if J == tuple(range(n)):
            idx_id = t
            break
    plain = np.eye((n**n) * mdim, dtype=np.int64)[idx_id * mdim: (idx_id + 1) * mdim]
    return restrict(TM.plain_to_quotient(plus), plain, DTM.cross_effects[r].basis, sk.p)


def counit(F: VecFunctor, n: int) -> tuple["NatTransform", TensorSigma, SigmaNFunctor]:
    """The evaluation transformation from the balanced tensor of the n-fold
    difference back into F."""
    sk = F.sk
    M = delta_n_sigma(F, n)
    TM = tensor_sigma_n(sk, M, n, window=F.window)
    mats = {}
    for o in sk.objects:
        if o.dim > F.window:
            continue
        r, v = o.rclass, o.vdim
        mdim = M.dim(r)
        plus_n = sk.index[(r, n)]
        cr = M.cross_effects[r]
        plain_cols = np.zeros((F.dim(o.index), (v**n) * mdim), dtype=np.int64)
        for t, J in enumerate(itertools.product(range(v), repeat=n)):
            A = np.zeros((v, n), dtype=np.int64)
            for u, ju in enumerate(J):
                A[ju, u] = 1
            phi = sk._diag(sk.objects[plus_n], LinearMap.identity(sk.rector.classes[r].dim, sk.p), LinearMap.from_array(A, sk.p))
            big = F.mat(plus_n, o.index, phi)
            block = (big @ cr.basis.T) % sk.p
            plain_cols[:, t * mdim:(t + 1) * mdim] = block
        mats[o.index] = (plain_cols @ TM.quotient_to_plain(o.index)) % sk.p
        # well defined on the quotient: the plain matrix must kill the relations
        resid = (plain_cols - mats[o.index] @ TM.plain_to_quotient(o.index)) % sk.p
        if resid.any():
            raise ValueError("evaluation does not descend to the balanced tensor")
    return NatTransform(TM, F, mats), TM, M


# ---------------------------------------------------------------------------
# natural transformations


@dataclass
class NatTransform:
    src: VecFunctor
    dst: VecFunctor
    mats: dict[int, np.ndarray]

    def __getitem__(self, i):
        return self.mats[i]

    def window(self) -> int:
        return min(self.src.window, self.dst.window)

    def is_natural(self, generators_only: bool = True, budget: int = 100_000) -> bool:
        A, B = self.src, self.dst
        sk = A.sk
        w = self.window()
        if generators_only:
            pairs = [
                (i, j, g)
                for (i, j, g) in sk.generating_morphisms()
                if sk.objects[i].dim <= w and sk.objects[j].dim <= w
            ]
        else:
            pairs = []
            count = 0
            for oi in sk.objects:
                if oi.dim > w:
                    continue
                for oj in sk.objects:
                    if oj.dim > w:
                        continue
                    homs = sk.hom(oi.index, oj.index)
                    count += len(homs)
                    if count > budget:
                        raise WindowExceeded("naturality budget exceeded")
                    pairs.extend((oi.index, oj.index, g) for g in homs)
        for i, j, g in pairs:
            lhs = (self.mats[j] @ A.mat(i, j, g)) % A.p
            rhs = (B.mat(i, j, g) @ self.mats[i]) % A.p
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def kernel_subfunctor(self) -> SubFunctor:
        bases = {}
        for i in self.src.object_indices():
            bases[i] = nullspace(self.mats[i], self.src.p)
        sub = SubFunctor(self.src, bases)
        if not sub.is_stable():
            raise ValueError("kernel is not a subfunctor; transformation not natural")
        return sub

    def image_subfunctor(self) -> SubFunctor:
        bases = {}
        for i in self.dst.object_indices():
            r, piv = rref(self.mats[i].T, self.src.p)
            bases[i] = r[: len(piv)]
        sub = SubFunctor(self.dst, bases)
        if not sub.is_stable():
            raise ValueError("image is not a subfunctor; transformation not natural")
        return sub


def nat_space(A: VecFunctor, B: VecFunctor, verify: bool = True) -> list[NatTransform]:
    """Basis of the space of natural transformations A -> B on the window.

    The constraint system runs over a generating family of morphisms (which
    pins down naturality for all composites); each solution is then verified
    against the generators again, and optionally against full hom-sets when
    small.
    """
    sk = A.sk
    w = min(A.window, B.window)
    shapes = {o.index: (B.dim(o.index), A.dim(o.index)) for o in sk.objects if o.dim <= w}
    blocks = (
        (i, j, A.mat(i, j, g), B.mat(i, j, g))
        for (i, j, g) in sk.generating_morphisms()
        if sk.objects[i].dim <= w and sk.objects[j].dim <= w
    )
    out = []
    for mats in intertwiner_space(shapes, blocks, A.p):
        t = NatTransform(A, B, mats)
        if verify and not t.is_natural(generators_only=True):
            raise ValueError("solver produced a non-natural transformation")
        out.append(t)
    return out


def sigma_hom_space(M: SigmaNFunctor, N: SigmaNFunctor) -> int:
    """Dimension of the space of maps M -> N commuting with the symmetric
    action and the class maps."""
    sk = M.sk
    classes = sorted(set(M.classes()) | set(N.classes()))
    shapes = {r: (N.dim(r), M.dim(r)) for r in classes}

    def blocks():
        # equivariance for the transposition generators, object by object;
        # a class where either side vanishes gives no equation
        for r in classes:
            if M.dim(r) * N.dim(r) == 0:
                continue
            for t in range(M.n - 1):
                yield r, r, M.sigma_gen(r, t), N.sigma_gen(r, t)
        # naturality for the class maps: Y_{r2} M(f) = N(f) Y_{r1}
        for r1 in classes:
            for r2 in classes:
                for f in sk.rector_hom(r1, r2):
                    yield r1, r2, M.rmap(r1, r2, f), N.rmap(r1, r2, f)

    return len(intertwiner_space(shapes, blocks(), sk.p))


def functor_to_json(F: VecFunctor, map_budget: int = 1 << 20) -> dict:
    """Materialize a windowed functor: value dimensions per skeletal object
    plus one matrix per skeletal morphism, keyed by classes and entries."""
    sk = F.sk
    idxs = F.object_indices()
    total = sum(len(sk.hom(i, j)) for i in idxs for j in idxs)
    if total > map_budget:
        raise BudgetExceeded("maps", total, map_budget)
    dims = [
        {"class": sk.objects[i].rclass, "trivial_dim": sk.objects[i].vdim, "dim": F.dim(i)}
        for i in idxs
    ]
    maps = {}
    for i in idxs:
        for j in idxs:
            oi, oj = sk.objects[i], sk.objects[j]
            for g in sk.hom(i, j):
                key = f"{oi.rclass},{oi.vdim}->{oj.rclass},{oj.vdim}:{encode_entries(g)}"
                maps[key] = F.mat(i, j, g).tolist()
    return {"schema": 1, "p": F.p, "window": F.window, "dims": dims, "maps": maps}


def functor_from_json(sk: Skeleton, doc: dict, name: str = "loaded") -> VecFunctor:
    dims = {}
    for row in doc["dims"]:
        dims[sk.index[(row["class"], row["trivial_dim"])]] = row["dim"]
    table = {}
    for key, mat in doc["maps"].items():
        src, _, rest = key.partition("->")
        dst, _, digits = rest.partition(":")
        r1, v1 = (int(x) for x in src.split(","))
        r2, v2 = (int(x) for x in dst.split(","))
        i, j = sk.index[(r1, v1)], sk.index[(r2, v2)]
        gamma = decode_entries(digits, sk.objects[j].dim, sk.objects[i].dim, sk.p)
        table[(i, j, gamma.data)] = np.asarray(mat, dtype=np.int64).reshape(dims[j], dims[i])

    def rule(i, j, gamma):
        return table[(i, j, gamma.data)]

    return VecFunctor(sk, doc["window"], dims, rule, name=name)


def random_subfunctor(F: VecFunctor, rng: np.random.Generator, max_seeds: int = 2) -> SubFunctor:
    """Morphism-stable family generated by random vectors at random objects."""
    idxs = [i for i in F.object_indices() if F.dim(i) > 0]
    if not idxs:
        return zero_subfunctor(F)
    starts: dict[int, list] = {}
    for _ in range(int(rng.integers(1, max_seeds + 1))):
        i = int(rng.choice(idxs))
        starts.setdefault(i, []).append(rng.integers(0, F.p, size=F.dim(i)))
    return _closure_subfunctor(F, starts)


def ses_delta_exactness(F: VecFunctor, sub: SubFunctor) -> bool:
    """Differencing the short exact sequence sub -> F -> F/sub must again be
    exact: dimensions add and the induced maps compose to an exact pair."""
    Fsub = sub.to_functor()
    Fq = quotient_functor(F, sub)
    dS, dF, dQ = delta_bar(Fsub), delta_bar(F), delta_bar(Fq)
    sk = F.sk
    for o in sk.objects:
        if o.dim > dF.window:
            continue
        i = o.index
        if dS.dim(i) + dQ.dim(i) != dF.dim(i):
            return False
        up = sk.index[(o.rclass, o.vdim + 1)]
        # inclusion and projection at the enlarged object, restricted to kernels
        inc = restrict(sub.bases[up].T % F.p, dS.bases[i], dF.bases[i], F.p)  # sub coords -> F coords
        try:
            proj = restrict(Fq.quotient_projs[up], dF.bases[i], dQ.bases[i], F.p)
        except ValueError:
            return False
        if len(rref(inc.T, F.p)[1]) != dS.dim(i):
            return False  # induced inclusion not injective
        if len(rref(proj, F.p)[1]) != dQ.dim(i):
            return False  # induced projection not surjective
        if ((proj @ inc) % F.p).any():
            return False
        # image of inc = kernel of proj by dimension count
        if dS.dim(i) != dF.dim(i) - len(rref(proj, F.p)[1]):
            return False
    return True


def tensor_of_unit(M: SigmaNFunctor, TM: TensorSigma, T_DTM: TensorSigma, units: dict[int, np.ndarray]) -> NatTransform:
    """The transformation TM -> T^n (x) (n-fold difference of TM) induced by
    tensoring the unit maps with the trivial-block tensor power."""
    sk = TM.sk
    n = TM.n
    mats = {}
    for o in sk.objects:
        if o.dim > TM.window:
            continue
        r, v = o.rclass, o.vdim
        plain = np.kron(np.eye(v**n, dtype=np.int64), units[r]) % sk.p
        mats[o.index] = (T_DTM.plain_to_quotient(o.index) @ plain @ TM.quotient_to_plain(o.index)) % sk.p
    return NatTransform(TM, T_DTM, mats)


def restrict_nat_to_cross(phi: NatTransform, n: int, r: int, src_cr: CrossEffect, dst_cr: CrossEffect) -> np.ndarray:
    """Matrix of the n-fold difference of a transformation at one class."""
    plus = phi.src.sk.index[(r, n)]
    return restrict(phi.mats[plus], src_cr.basis, dst_cr.basis, phi.src.p)


def adjunction_check(M: SigmaNFunctor, F: VecFunctor, n: int) -> dict:
    """Compare the two transformation spaces of the degree-n adjunction and
    check the triangle identities on the unit/counit instances."""
    sk = F.sk
    TM = tensor_sigma_n(sk, M, n, window=F.window)
    left = len(nat_space(TM, F))
    DF = delta_n_sigma(F, n)
    right = sigma_hom_space(M, DF)

    # triangle at TM: counit after tensored unit is the identity
    eta_tm, T_DTM, DTM = counit(TM, n)
    units = {r: unit_map(M, TM, DTM, r) for r in M.classes() if M.dim(r)}
    for r in list(units):
        if units[r].shape[0] != units[r].shape[1]:
            raise ValueError("unit is not square; difference of the tensor does not match")
    tu = tensor_of_unit(M, TM, T_DTM, {r: units.get(r, np.zeros((DTM.dim(r), M.dim(r)), dtype=np.int64)) for r in range(len(sk.rector.classes))})
    triangle1 = all(
        np.array_equal((eta_tm.mats[i] @ tu.mats[i]) % sk.p, np.eye(TM.dim(i), dtype=np.int64))
        for i in TM.object_indices()
    )

    # triangle at F: differenced counit after the unit at DF is the identity
    eta_f, T_DF, _ = counit(F, n)
    D_TDF = delta_n_sigma(T_DF, n)
    triangle2 = True
    for r in DF.classes():
        if DF.dim(r) == 0:
            continue
        u2 = unit_map(DF, T_DF, D_TDF, r)
        deta = restrict_nat_to_cross(eta_f, n, r, D_TDF.cross_effects[r], DF.cross_effects[r])
        if not np.array_equal((deta @ u2) % sk.p, np.eye(DF.dim(r), dtype=np.int64)):
            triangle2 = False
    return {
        "hom_dim_tensor_side": left,
        "hom_dim_difference_side": right,
        "dims_equal": left == right,
        "triangle_tensor": triangle1,
        "triangle_difference": triangle2,
        "window": min(F.window, TM.window),
    }


# ---------------------------------------------------------------------------
# extension criterion


def extendable(G: ProductFunctor, F: VecFunctor, lam: dict[int, np.ndarray]):
    """Test whether a transformation natural for block-diagonal morphisms
    extends to the whole category: every shear must act as the identity on
    the image.  Returns (ok, witness, extended transformation or None).
    """
    sk = G.sk
    w = min(G.window, F.window)
    for o in sk.objects:
        if o.dim > w:
            continue
        for shear in sk.shears(o.rclass, o.vdim):
            act = F.mat(o.index, o.index, shear)
            lhs = (act @ lam[o.index]) % sk.p
            if not np.array_equal(lhs, lam[o.index] % sk.p):
                return False, (o.index, shear), None
    ext = NatTransform(E_transform(G), F, {i: lam[i] % sk.p for i in G.object_indices() if sk.objects[i].dim <= w})
    if not ext.is_natural(generators_only=True):
        return False, ("naturality",), None
    return True, None, ext
