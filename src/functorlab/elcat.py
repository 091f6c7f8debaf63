"""Categories of elements of a set functor, their skeletons, and hom-sets.

Objects are pairs (W, psi) with psi in S(W); a morphism (W, psi) -> (H, eta)
is a linear map gamma with gamma^* eta = psi.  Regular pairs form the full
subcategory whose skeleton (iso-class representatives, witnesses and
automorphism groups) drives everything downstream.

Skeletal objects of the whole category are assembled as
(regular class) + (trivial block of dimension v); in those coordinates every
morphism is block lower triangular and the special morphisms the difference
calculus needs (projections dropping trivial coordinates, inclusions,
permutations of trivial coordinates, shears) have fixed shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import (
    DEFAULT_MAP_BUDGET,
    BudgetExceeded,
    LinearMap,
    Subspace,
    block_map,
    count_maps,
    enumerate_maps,
    general_linear,
    proj_with_kernel,
)
from .sfunctor import (
    SElement,
    SetFunctor,
    boxplus,
    is_connected,
    kernel_of,
    regular_set,
    tilde,
)

ElObject = SElement  # an object of the category of elements: (dim, index into S(dim))


@dataclass(frozen=True)
class ElMorphism:
    src: ElObject
    dst: ElObject
    map: LinearMap

    def verify(self, S: SetFunctor) -> bool:
        return S.act(self.map, self.dst) == self.src


def hom_set(S: SetFunctor, a: ElObject, b: ElObject, budget: int = DEFAULT_MAP_BUDGET) -> list[ElMorphism]:
    """All morphisms a -> b, in map enumeration order."""
    total = count_maps(S.p, a.dim, b.dim)
    if total > budget:
        raise BudgetExceeded("maps", total, budget)
    out = []
    for gamma in enumerate_maps(S.p, a.dim, b.dim):
        if S.act(gamma, b) == a:
            out.append(ElMorphism(a, b, gamma))
    return out


def decompose(S: SetFunctor, o: ElObject) -> tuple[ElObject, Subspace, ElMorphism]:
    """Split o into its regular part and trivial block.

    Returns (regular object on the pivot complement, ker(psi), iso) where the
    iso goes from o to the assembled object (regular + trivial) and is a
    morphism in both directions (checked).
    """
    u = kernel_of(S, o)
    t = tilde(S, o)
    m, k = t.dim, u.dim
    projm, _ = proj_with_kernel(u)
    # coordinates of the kernel component relative to the basis of u
    d = o.dim
    piv = u.pivots
    sect_c = np.zeros((d, m), dtype=np.int64)
    nonpiv = [j for j in range(d) if j not in piv]
    for jj, c in enumerate(nonpiv):
        sect_c[c, jj] = 1
    # u-component of v is (I - sect proj) v; its coordinates in the RREF basis
    # of u can be read off at the pivot positions
    q = np.zeros((k, d), dtype=np.int64)
    resid = (np.eye(d, dtype=np.int64) - sect_c @ projm.arr) % S.p
    for i, pc in enumerate(piv):
        q[i] = resid[pc]
    phi = LinearMap.from_array(np.concatenate([projm.arr, q], axis=0), S.p)
    assembled = boxplus(S, t, k)
    target = ElObject(m + k, assembled.index)
    iso = ElMorphism(o, target, phi)
    if not iso.verify(S):
        raise RuntimeError("decomposition witness is not a morphism")
    inv = ElMorphism(target, o, phi.inverse())
    if not inv.verify(S):
        raise RuntimeError("decomposition witness inverse is not a morphism")
    return t, u, iso


@dataclass
class RectorSkeleton:
    S: SetFunctor
    cap: int
    classes: list[ElObject]
    witnesses: dict[ElObject, tuple[int, LinearMap]]  # regular o -> (class idx, iso o -> rep)
    aut_groups: list[list[LinearMap]]

    def class_index(self, o: ElObject) -> int:
        return self.witnesses[o][0]

    def class_dims(self) -> list[int]:
        return [c.dim for c in self.classes]


def build_rector_skeleton(S: SetFunctor, cap: int | None = None, budget: int = DEFAULT_MAP_BUDGET) -> RectorSkeleton:
    """Orbit/stabilizer computation of GL(d) acting on regular elements.

    Representatives are enumeration-minimal in each orbit; every regular pair
    gets a stored iso to its representative and each representative gets its
    automorphism group as an explicit element list.
    """
    cap = S.cap if cap is None else cap
    classes: list[ElObject] = []
    witnesses: dict[ElObject, tuple[int, LinearMap]] = {}
    auts: list[list[LinearMap]] = []
    for d in range(cap + 1):
        regs = regular_set(S, d)
        if not regs:
            continue
        if count_maps(S.p, d, d) > budget:
            raise BudgetExceeded("maps", count_maps(S.p, d, d), budget)
        gl = general_linear(S.p, d)
        seen: set[SElement] = set()
        for s in regs:
            if s in seen:
                continue
            # orbit of s: all gamma^* s with gamma invertible
            orbit: dict[SElement, LinearMap] = {}
            for gamma in gl:
                orbit.setdefault(S.act(gamma, s), gamma)
            rep = min(orbit)
            cls = len(classes)
            classes.append(rep)
            aut = [g for g in gl if S.act(g, rep) == rep]
            auts.append(aut)
            for member, gamma in orbit.items():
                seen.add(member)
                # gamma^* s = member; adjust to an iso member -> rep
                g_from_rep = orbit[rep]
                # (g_from_rep)^* s = rep; member -> rep needs w with w^* rep = member
                w = g_from_rep.inverse() @ gamma
                if S.act(w, rep) != member:
                    raise ValueError(f"the action is not functorial: {w} does not carry {rep} to {member}")
                witnesses[member] = (cls, w)
    return RectorSkeleton(S, cap, classes, witnesses, auts)


def check_injectivity(S: SetFunctor, R: RectorSkeleton, budget: int = DEFAULT_MAP_BUDGET):
    """Every morphism between regular pairs must be injective; returns
    (True, None) or (False, witness)."""
    regs = [s for d in range(R.cap + 1) for s in regular_set(S, d)]
    for a in regs:
        for b in regs:
            for mor in hom_set(S, a, b, budget):
                if not mor.map.is_injective():
                    return False, mor
    return True, None


# ---------------------------------------------------------------------------
# skeletal category


@dataclass(frozen=True)
class SkObject:
    """Skeletal object: regular class r padded with a trivial block of dim v."""

    index: int
    rclass: int
    vdim: int
    obj: ElObject  # realized pair

    @property
    def dim(self) -> int:
        return self.obj.dim

    @property
    def wdim(self) -> int:
        return self.obj.dim - self.vdim


class Skeleton:
    """Skeleton of the category of elements on dimensions <= window.

    Hom-sets are enumerated lazily and cached; composition is by matrix
    product with index lookup.  Morphisms between skeletal objects are block
    lower triangular in the (regular | trivial) coordinates.
    """

    def __init__(self, S: SetFunctor, window: int | None = None, budget: int = DEFAULT_MAP_BUDGET):
        if not is_connected(S):
            raise ValueError("skeletons need a connected functor; split components first")
        self.S = S
        self.window = S.cap if window is None else window
        if self.window > S.cap:
            raise ValueError("window exceeds the functor cap")
        self.budget = budget
        self.rector = build_rector_skeleton(S, self.window, budget)
        self.objects: list[SkObject] = []
        self.index: dict[tuple[int, int], int] = {}
        for r, rep in enumerate(self.rector.classes):
            for v in range(self.window - rep.dim + 1):
                elt = boxplus(S, rep, v)
                sk = SkObject(len(self.objects), r, v, ElObject(rep.dim + v, elt.index))
                self.index[(r, v)] = sk.index
                self.objects.append(sk)
        self._hom: dict[tuple[int, int], list[LinearMap]] = {}
        self._hom_pos: dict[tuple[int, int], dict[bytes, int]] = {}
        self._rep_cache: dict[ElObject, tuple[int, LinearMap]] = {}
        self._generators: list[tuple[int, int, LinearMap]] | None = None

    @property
    def p(self) -> int:
        return self.S.p

    def obj(self, r: int, v: int) -> SkObject:
        return self.objects[self.index[(r, v)]]

    def hom(self, i: int, j: int) -> list[LinearMap]:
        key = (i, j)
        if key not in self._hom:
            a, b = self.objects[i], self.objects[j]
            mors = hom_set(self.S, a.obj, b.obj, self.budget)
            self._hom[key] = [m.map for m in mors]
            self._hom_pos[key] = {m.map.data: k for k, m in enumerate(mors)}
        return self._hom[key]

    def hom_position(self, i: int, j: int, gamma: LinearMap) -> int:
        self.hom(i, j)
        return self._hom_pos[(i, j)][gamma.data]

    def identity(self, i: int) -> LinearMap:
        return LinearMap.identity(self.objects[i].dim, self.p)

    def is_morphism(self, i: int, j: int, gamma: LinearMap) -> bool:
        return self.S.act(gamma, self.objects[j].obj) == self.objects[i].obj

    # -- routing of arbitrary pairs onto the skeleton ------------------------

    def rep_of(self, o: ElObject) -> tuple[int, LinearMap]:
        """Skeletal index plus an iso w: o -> representative (w^* rep = ... o)."""
        hit = self._rep_cache.get(o)
        if hit is not None:
            return hit
        t, u, iso = decompose(self.S, o)
        r, wr = self.rector.witnesses[t]
        v = u.dim
        w = block_map(
            [[wr, LinearMap.zero(wr.rows, v, self.p)],
             [LinearMap.zero(v, wr.cols, self.p), LinearMap.identity(v, self.p)]],
            self.p,
        ) @ iso.map
        idx = self.index[(r, v)]
        if self.S.act(w, self.objects[idx].obj) != o:
            raise ValueError(f"the action is not functorial: {w} does not carry object {idx} to {o}")
        self._rep_cache[o] = (idx, w)
        return idx, w

    # -- block structure ------------------------------------------------------

    def blocks(self, i: int, j: int, gamma: LinearMap):
        """Split gamma in hom(i, j) into (f, g, h) per the lower-triangular form."""
        a, b = self.objects[i], self.objects[j]
        arr = gamma.arr
        w, v = a.wdim, a.vdim
        w2, v2 = b.wdim, b.vdim
        f = LinearMap.from_array(arr[:w2, :w], self.p)
        g = LinearMap.from_array(arr[w2:, :w], self.p)
        h = LinearMap.from_array(arr[w2:, w:], self.p)
        top_right = arr[:w2, w:]
        return f, g, h, not top_right.any()

    def assemble(self, i: int, j: int, f: LinearMap, g: LinearMap, h: LinearMap) -> LinearMap:
        a, b = self.objects[i], self.objects[j]
        return block_map(
            [[f, LinearMap.zero(b.wdim, a.vdim, self.p)], [g, h]], self.p
        )

    # -- special morphisms ----------------------------------------------------

    def proj_one(self, r: int, v: int) -> LinearMap:
        """The projection (r, v+1) -> (r, v) dropping the last trivial coordinate."""
        d = self.obj(r, v).dim
        return LinearMap.from_array(
            np.concatenate([np.eye(d, dtype=np.int64), np.zeros((d, 1), dtype=np.int64)], axis=1),
            self.p,
        )

    def incl_one(self, r: int, v: int) -> LinearMap:
        """The inclusion (r, v) -> (r, v+1)."""
        d = self.obj(r, v).dim
        return LinearMap.from_array(
            np.concatenate([np.eye(d, dtype=np.int64), np.zeros((1, d), dtype=np.int64)], axis=0),
            self.p,
        )

    def drop_coords(self, r: int, v: int, coords: tuple[int, ...]) -> LinearMap:
        """Projection (r, v) -> (r, v - len(coords)) killing the given trivial
        coordinates (indices into the trivial block)."""
        a = self.obj(r, v)
        keep = [k for k in range(v) if k not in coords]
        eye = np.eye(a.dim, dtype=np.int64)
        rows = [eye[i] for i in range(a.wdim)] + [eye[a.wdim + k] for k in keep]
        if not rows:
            return LinearMap.zero(0, a.dim, self.p)
        return LinearMap.from_array(np.stack(rows), self.p)

    def perm_trivial(self, r: int, v: int, perm: tuple[int, ...]) -> LinearMap:
        """Automorphism of (r, v) permuting trivial coordinates: e_i -> e_perm(i)."""
        a = self.obj(r, v)
        arr = np.eye(a.dim, dtype=np.int64)
        block = np.zeros((v, v), dtype=np.int64)
        for i, pi in enumerate(perm):
            block[pi, i] = 1
        arr[a.wdim:, a.wdim:] = block
        return LinearMap.from_array(arr, self.p)

    def shear(self, r: int, v: int, f_block: np.ndarray) -> LinearMap:
        """Automorphism [[id, 0], [f, id]] of (r, v); f: regular coords -> trivial."""
        a = self.obj(r, v)
        arr = np.eye(a.dim, dtype=np.int64)
        arr[a.wdim:, : a.wdim] = np.asarray(f_block, dtype=np.int64) % self.p
        return LinearMap.from_array(arr, self.p)

    def shears(self, r: int, v: int):
        """All shear automorphisms of (r, v), trivial one excluded."""
        a = self.obj(r, v)
        w = a.wdim
        for digits in itertools.product(range(self.p), repeat=w * v):
            if not any(digits):
                continue
            yield self.shear(r, v, np.asarray(digits, dtype=np.int64).reshape(v, w))

    # -- generators -----------------------------------------------------------

    def generating_morphisms(self) -> list[tuple[int, int, LinearMap]]:
        """A generating family: every skeletal morphism is a composite of these.

        Block-diagonal moves (all regular-class morphisms; elementary
        invertibles, adjacent projections and inclusions on the trivial
        block) together with elementary shears.  Built on the first call and
        kept on the skeleton; callers must not change the list.
        """
        if self._generators is not None:
            return self._generators
        gens: list[tuple[int, int, LinearMap]] = []
        for a in self.objects:
            r, v = a.rclass, a.vdim
            # adjacent projection / inclusion on the trivial block
            if (r, v + 1) in self.index:
                gens.append((self.index[(r, v + 1)], a.index, self.proj_one(r, v)))
                gens.append((a.index, self.index[(r, v + 1)], self.incl_one(r, v)))
            # elementary invertibles on the trivial block
            for h in _elementary_invertibles(self.p, v):
                gens.append((a.index, a.index, self._diag(a, LinearMap.identity(a.wdim, self.p), h)))
            # shears, elementary only
            for pos in range(a.wdim * v):
                fb = np.zeros(a.wdim * v, dtype=np.int64)
                fb[pos] = 1
                gens.append((a.index, a.index, self.shear(r, v, fb.reshape(v, a.wdim))))
            # regular-class morphisms into other classes, diagonally embedded
            for b in self.objects:
                if b.vdim != v or b.rclass == r:
                    continue
                for f in self.rector_hom(r, b.rclass):
                    gens.append((a.index, b.index, self._diag(a, f, LinearMap.identity(v, self.p))))
            # automorphisms of the own class
            for f in self.rector.aut_groups[r]:
                if f != LinearMap.identity(a.wdim, self.p):
                    gens.append((a.index, a.index, self._diag(a, f, LinearMap.identity(v, self.p))))
        self._generators = gens
        return gens

    def _diag(self, a: SkObject, f: LinearMap, h: LinearMap) -> LinearMap:
        return block_map(
            [[f, LinearMap.zero(f.rows, h.cols, self.p)], [LinearMap.zero(h.rows, f.cols, self.p), h]],
            self.p,
        )

    def rector_hom(self, r1: int, r2: int) -> list[LinearMap]:
        """Morphisms between regular class representatives."""
        a, b = self.rector.classes[r1], self.rector.classes[r2]
        return [m.map for m in hom_set(self.S, a, b, self.budget)]


def _elementary_invertibles(p: int, n: int) -> list[LinearMap]:
    """Transvections, swaps of adjacent coordinates and scalings: generate GL(n, p)."""
    out = []
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = eye.copy()
            m[i, j] = 1
            out.append(LinearMap.from_array(m, p))
    for i in range(n - 1):
        m = eye.copy()
        m[[i, i + 1]] = m[[i + 1, i]]
        out.append(LinearMap.from_array(m, p))
    if p > 2 and n >= 1:
        for a in range(2, p):
            m = eye.copy()
            m[0, 0] = a
            out.append(LinearMap.from_array(m, p))
    return out


def verify_block_form(S: SetFunctor, sk: Skeleton, i: int, j: int) -> bool:
    """hom(i, j) must be exactly the block-lower-triangular maps whose regular
    block is a regular-class morphism."""
    a, b = sk.objects[i], sk.objects[j]
    got = {g.data for g in sk.hom(i, j)}
    expect = set()
    for f in sk.rector_hom(a.rclass, b.rclass):
        for g in enumerate_maps(S.p, a.wdim, b.vdim):
            for h in enumerate_maps(S.p, a.vdim, b.vdim):
                expect.add(sk.assemble(i, j, f, g, h).data)
    return got == expect


def hom_factorization_holds(S: SetFunctor, sk: Skeleton, i: int, j: int) -> bool:
    """|hom| = |regular-class hom| * p^{(w+u) v}."""
    a, b = sk.objects[i], sk.objects[j]
    lhs = len(sk.hom(i, j))
    rhs = len(sk.rector_hom(a.rclass, b.rclass)) * S.p ** (a.dim * b.vdim)
    return lhs == rhs


def rector_report(sk: Skeleton) -> dict:
    """Classes, automorphism groups and the hom-set cardinality matrix."""
    R = sk.rector
    classes = []
    for r, rep in enumerate(R.classes):
        aut = R.aut_groups[r]
        classes.append(
            {
                "dim": rep.dim,
                "element_index": rep.index,
                "aut_order": len(aut),
                "aut_elements": [g.arr.tolist() for g in aut],
            }
        )
    n = len(R.classes)
    matrix = [[0] * n for _ in range(n)]
    for r1 in range(n):
        for r2 in range(n):
            matrix[r1][r2] = len(sk.rector_hom(r1, r2))
    return {"classes": classes, "hom_cardinalities": matrix}
