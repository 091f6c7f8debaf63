"""Categories of elements of a set functor, their skeletons, and hom-sets.

Objects are pairs (W, psi) with psi in S(W); a morphism (W, psi) -> (H, eta)
is a linear map gamma with gamma^* eta = psi, so a hom-set is held as one
(K, dim H, dim W) stack of matrices in map enumeration order.  Regular pairs
form the full subcategory whose skeleton (iso-class representatives,
witnesses and automorphism groups) drives everything downstream.

Skeletal objects of the whole category are assembled as
(regular class) + (trivial block of dimension v); in those coordinates every
morphism is block lower triangular and the special morphisms the difference
calculus needs (projections dropping trivial coordinates, inclusions,
permutations of trivial coordinates, shears) have fixed shapes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gf import (
    DEFAULT_MAP_BUDGET,
    MAP_SLICE,
    BudgetExceeded,
    Subspace,
    count_maps,
    general_linear,
    gl_generators,
    inverse,
    line_vectors,
    map_indices,
    map_slices,
    map_stack,
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


def hom_set(S: SetFunctor, a: ElObject, b: ElObject, budget: int = DEFAULT_MAP_BUDGET) -> np.ndarray:
    """All morphisms a -> b: the (K, b.dim, a.dim) int64 stack of the maps
    gamma with gamma^* b = a, in map enumeration order, so their
    gf.map_indices increase.

    b is pulled back along one map_slices stack of the maps F^a.dim ->
    F^b.dim at a time, so memory stays bounded up to the budget.
    """
    slices = map_slices(S.p, a.dim, b.dim, budget)
    return np.concatenate([gammas[S._pull(gammas, b.index) == a.index] for gammas in slices])


def decompose(S: SetFunctor, o: ElObject) -> tuple[ElObject, Subspace, np.ndarray]:
    """Split o into its regular part and trivial block.

    Returns (regular object on the pivot complement, ker(psi), iso) where the
    iso goes from o to the assembled object (regular + trivial) and is a
    morphism in both directions (checked).
    """
    u = kernel_of(S, o)
    t = tilde(S, o)
    m, k = t.dim, u.dim
    projm, sect = proj_with_kernel(u)
    # u-component of v is (I - sect proj) v; its coordinates in the RREF basis
    # of u can be read off at the pivot positions
    resid = (np.eye(o.dim, dtype=np.int64) - sect @ projm) % S.p
    phi = np.concatenate([projm, resid[u.pivots]], axis=0)
    assembled = boxplus(S, t, k)
    target = ElObject(m + k, assembled.index)
    if S.act(phi, target) != o:
        raise RuntimeError("decomposition witness is not a morphism")
    if S.act(inverse(phi, S.p), o) != target:
        raise RuntimeError("decomposition witness inverse is not a morphism")
    return t, u, phi


@dataclass
class RectorSkeleton:
    S: SetFunctor
    cap: int
    classes: list[ElObject]
    witnesses: dict[ElObject, tuple[int, np.ndarray]]  # regular o -> (class idx, read-only iso o -> rep)
    aut_groups: list[np.ndarray]  # per class, its automorphisms as one read-only stack in general_linear order

    def class_index(self, o: ElObject) -> int:
        return self.witnesses[o][0]


def build_rector_skeleton(S: SetFunctor, cap: int | None = None, budget: int = DEFAULT_MAP_BUDGET) -> RectorSkeleton:
    """Orbit/stabilizer computation of GL(d) acting on regular elements.

    Representatives are enumeration-minimal in each orbit; every regular pair
    gets a stored iso to its representative and each representative gets its
    automorphism group as the stack of its elements in general_linear order.
    """
    cap = S.cap if cap is None else cap
    classes: list[ElObject] = []
    witnesses: dict[ElObject, tuple[int, np.ndarray]] = {}
    auts: list[np.ndarray] = []
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
            # orbit of s: all gamma^* s with gamma invertible, each member by
            # the position in gl of the first gamma reaching it
            orbit: dict[SElement, int] = {}
            for k, t in enumerate(S._pull(gl, s.index).tolist()):
                orbit.setdefault(SElement(d, t), k)
            rep = min(orbit)
            cls = len(classes)
            classes.append(rep)
            auts.append(gl[S._pull(gl, rep.index) == rep.index])
            auts[-1].setflags(write=False)
            # (g_from_rep)^* s = rep and gamma^* s = member, so w = g_from_rep^-1
            # gamma is an iso member -> rep: w^* rep = member
            ws = inverse(gl[orbit[rep]], S.p) @ gl[list(orbit.values())] % S.p
            ws.setflags(write=False)
            for member, w, t in zip(orbit, ws, S._pull(ws, rep.index).tolist()):
                if t != member.index:
                    raise ValueError(f"the action is not functorial: {w.tolist()} does not carry {rep} to {member}")
                seen.add(member)
                witnesses[member] = (cls, w)
    return RectorSkeleton(S, cap, classes, witnesses, auts)


def class_hom_sets(R: RectorSkeleton, budget: int = DEFAULT_MAP_BUDGET) -> list[list[np.ndarray]]:
    """hom_set(R.S, a, b) for each ordered pair of class representatives:
    row a, column b, both in the order of R.classes.  rector_report and
    check_injectivity share these stacks."""
    return [[hom_set(R.S, a, b, budget) for b in R.classes] for a in R.classes]


def check_injectivity(
    S: SetFunctor, R: RectorSkeleton, budget: int = DEFAULT_MAP_BUDGET, homs: list[list[np.ndarray]] | None = None
):
    """Every morphism between regular pairs must be injective; returns
    (True, None) or (False, witness), the witness a map that is not injective.

    A map is injective when it kills no line of its source, so each hom-set
    stack is tested in one product with the line vectors of its source,
    MAP_SLICE maps at a time.  Injectivity is invariant under isomorphism, so
    it is decided on the hom-sets between class representatives, homs (the
    class_hom_sets of R, listed here when not given), row by row.  When that
    check finds a map that is not injective or meets the budget, the loop
    over all pairs of regular elements runs and reports its first witness.
    """

    def witness(rows):  # the first morphism of the (source, hom-set stacks) rows that kills a line of its source
        lines = {}
        for a, stacks in rows:
            if a.dim not in lines:
                lines[a.dim] = line_vectors(S.p, a.dim).T
            for stack in stacks:
                for start in range(0, len(stack), MAP_SLICE):
                    gammas = stack[start:start + MAP_SLICE]
                    killing = np.flatnonzero(~(gammas @ lines[a.dim] % S.p).any(axis=1).all(axis=1))
                    if killing.size:
                        return gammas[killing[0]]
        return None

    try:
        if witness(zip(R.classes, class_hom_sets(R, budget) if homs is None else homs)) is None:
            return True, None
    except BudgetExceeded:
        pass
    regs = [s for d in range(R.cap + 1) for s in regular_set(S, d)]
    wit = witness((a, (hom_set(S, a, b, budget) for b in regs)) for a in regs)
    return wit is None, wit


# ---------------------------------------------------------------------------
# skeletal category


def require_connected(S: SetFunctor) -> None:
    if not is_connected(S):
        raise ValueError("skeletons need a connected functor; split components first")


@dataclass(frozen=True)
class SkObject:
    """Skeletal object: regular class r padded with a trivial block of dim v."""

    index: int
    rclass: int
    vdim: int
    obj: ElObject  # realized pair
    dim: int  # obj.dim
    wdim: int  # dim of the regular block, obj.dim - vdim


def _kept(build):
    """A Skeleton method whose matrix is built once per argument tuple and
    kept read-only, so every caller shares one array."""

    @functools.wraps(build)
    def method(self, *args):
        key = (build.__name__, *args)
        m = self._special.get(key)
        if m is None:
            m = self._special[key] = build(self, *args)
            m.setflags(write=False)
        return m

    return method


class Skeleton:
    """Skeleton of the category of elements on dimensions <= window.

    Hom-sets are listed on first use and kept as read-only hom_set stacks;
    composition is by matrix product mod p.  Every morphism the skeleton
    hands out (hom-set rows, special morphisms, generators, class hom-sets)
    is, like a stack row, a (dim target, dim source) int64 matrix with
    entries in 0..p-1; the special morphisms are built once and kept
    read-only.  Morphisms between skeletal objects are block lower
    triangular in the (regular | trivial) coordinates.
    """

    def __init__(self, S: SetFunctor, window: int | None = None, budget: int = DEFAULT_MAP_BUDGET):
        require_connected(S)
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
                d = rep.dim + v
                sk = SkObject(len(self.objects), r, v, ElObject(d, elt.index), d, rep.dim)
                self.index[(r, v)] = sk.index
                self.objects.append(sk)
        self._hom: dict[tuple[int, int], np.ndarray] = {}
        self._rep_cache: dict[ElObject, tuple[int, np.ndarray]] = {}
        self._special: dict[tuple, np.ndarray] = {}  # the matrices of _kept methods
        self._generators: list[tuple[int, int, np.ndarray]] | None = None

    @property
    def p(self) -> int:
        return self.S.p

    def obj(self, r: int, v: int) -> SkObject:
        return self.objects[self.index[(r, v)]]

    def hom(self, i: int, j: int) -> np.ndarray:
        """hom(i, j) as hom_set's (K, dim j, dim i) stack, kept read-only."""
        stack = self._hom.get((i, j))
        if stack is None:
            stack = self._hom[i, j] = hom_set(self.S, self.objects[i].obj, self.objects[j].obj, self.budget)
            stack.setflags(write=False)
        return stack

    @_kept
    def identity(self, i: int) -> np.ndarray:
        return np.eye(self.objects[i].dim, dtype=np.int64)

    # -- routing of arbitrary pairs onto the skeleton ------------------------

    def rep_of(self, o: ElObject) -> tuple[int, np.ndarray]:
        """Skeletal index plus an iso w: o -> representative (w^* rep = ... o), kept read-only."""
        hit = self._rep_cache.get(o)
        if hit is not None:
            return hit
        t, u, iso = decompose(self.S, o)
        r, wr = self.rector.witnesses[t]
        v = u.dim
        w = self._diag(wr, np.eye(v, dtype=np.int64)) @ iso % self.p
        w.setflags(write=False)
        idx = self.index[(r, v)]
        if self.S.act(w, self.objects[idx].obj) != o:
            raise ValueError(f"the action is not functorial: {w.tolist()} does not carry object {idx} to {o}")
        self._rep_cache[o] = (idx, w)
        return idx, w

    # -- block structure ------------------------------------------------------

    def blocks(self, i: int, j: int, gamma: np.ndarray):
        """Split gamma in hom(i, j) into views (f, g, h) per the
        lower-triangular form, plus whether the top right block is zero."""
        w, w2 = self.objects[i].wdim, self.objects[j].wdim
        return gamma[:w2, :w], gamma[w2:, :w], gamma[w2:, w:], not gamma[:w2, w:].any()

    @staticmethod
    def _diag(f: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The block-diagonal map [[f, 0], [0, h]]."""
        out = np.zeros((f.shape[0] + h.shape[0], f.shape[1] + h.shape[1]), dtype=np.int64)
        out[: f.shape[0], : f.shape[1]] = f
        out[f.shape[0]:, f.shape[1]:] = h
        return out

    # -- special morphisms ----------------------------------------------------

    @_kept
    def proj_one(self, r: int, v: int) -> np.ndarray:
        """The projection (r, v+1) -> (r, v) dropping the last trivial coordinate."""
        d = self.obj(r, v).dim
        return np.eye(d, d + 1, dtype=np.int64)

    @_kept
    def incl_one(self, r: int, v: int) -> np.ndarray:
        """The inclusion (r, v) -> (r, v+1)."""
        d = self.obj(r, v).dim
        return np.eye(d + 1, d, dtype=np.int64)

    @_kept
    def drop_coords(self, r: int, v: int, coords: tuple[int, ...]) -> np.ndarray:
        """Projection (r, v) -> (r, v - len(coords)) killing the given trivial
        coordinates (indices into the trivial block)."""
        a = self.obj(r, v)
        keep = list(range(a.wdim)) + [a.wdim + k for k in range(v) if k not in coords]
        return np.eye(a.dim, dtype=np.int64)[keep]

    @_kept
    def perm_trivial(self, r: int, v: int, perm: tuple[int, ...]) -> np.ndarray:
        """Automorphism of (r, v) permuting trivial coordinates: e_i -> e_perm(i)."""
        a = self.obj(r, v)
        arr = np.eye(a.dim, dtype=np.int64)
        arr[a.wdim:, a.wdim:] = np.eye(v, dtype=np.int64)[:, list(perm)]
        return arr

    def shear(self, r: int, v: int, f_block: np.ndarray) -> np.ndarray:
        """Automorphism [[id, 0], [f, id]] of (r, v); f: regular coords -> trivial."""
        a = self.obj(r, v)
        arr = np.eye(a.dim, dtype=np.int64)
        arr[a.wdim:, : a.wdim] = np.asarray(f_block, dtype=np.int64) % self.p
        return arr

    def shears(self, r: int, v: int):
        """All shear automorphisms of (r, v), trivial one excluded."""
        a = self.obj(r, v)
        w = a.wdim
        for digits in itertools.product(range(self.p), repeat=w * v):
            if not any(digits):
                continue
            yield self.shear(r, v, np.asarray(digits, dtype=np.int64).reshape(v, w))

    # -- generators -----------------------------------------------------------

    def generating_morphisms(self) -> list[tuple[int, int, np.ndarray]]:
        """A generating family: every skeletal morphism is a composite of these.

        At each object (r, v): the adjacent projection and inclusion on the
        trivial block, diag(1, h) for h in gf.gl_generators(p, v), the wdim
        shears whose lower-left block has a single 1 in row 0, the class
        morphisms into other classes and the automorphisms of r.  Every
        shear at (r, v) is a word in these: diag(1, h) shear(c) diag(1,
        h)^-1 = shear(h c), GL_v is transitive on nonzero columns and
        finite (so inverses are powers), and shears add under composition.
        Built on the first call and kept on the skeleton, its matrices
        read-only; callers must not change the list.
        """
        if self._generators is not None:
            return self._generators
        gens: list[tuple[int, int, np.ndarray]] = []
        for a in self.objects:
            r, v = a.rclass, a.vdim
            eye_w, eye_v = np.eye(a.wdim, dtype=np.int64), np.eye(v, dtype=np.int64)
            # adjacent projection / inclusion on the trivial block
            if (r, v + 1) in self.index:
                gens.append((self.index[(r, v + 1)], a.index, self.proj_one(r, v)))
                gens.append((a.index, self.index[(r, v + 1)], self.incl_one(r, v)))
            # generators of GL_v on the trivial block
            for h in gl_generators(self.p, v):
                gens.append((a.index, a.index, self._diag(eye_w, h)))
            # shears with a single 1 in row 0
            for k in range(a.wdim if v else 0):
                fb = np.zeros((v, a.wdim), dtype=np.int64)
                fb[0, k] = 1
                gens.append((a.index, a.index, self.shear(r, v, fb)))
            # regular-class morphisms into other classes, diagonally embedded
            for b in self.objects:
                if b.vdim != v or b.rclass == r:
                    continue
                for f in self.rector_hom(r, b.rclass):
                    gens.append((a.index, b.index, self._diag(f, eye_v)))
            # automorphisms of the own class
            for f in self.rector.aut_groups[r]:
                if not np.array_equal(f, eye_w):
                    gens.append((a.index, a.index, self._diag(f, eye_v)))
        for _, _, g in gens:
            g.setflags(write=False)
        self._generators = gens
        return gens

    def rector_hom(self, r1: int, r2: int) -> np.ndarray:
        """Morphisms between regular class representatives: the read-only
        hom-set stack of the skeletal objects (r1, 0) and (r2, 0), which are
        those representatives."""
        return self.hom(self.index[(r1, 0)], self.index[(r2, 0)])


def verify_block_form(S: SetFunctor, sk: Skeleton, i: int, j: int) -> bool:
    """hom(i, j) must be exactly the block-lower-triangular maps [[f, 0], [g,
    h]] whose regular block f is a regular-class morphism."""
    a, b = sk.objects[i], sk.objects[j]
    fs = sk.hom(sk.index[(a.rclass, 0)], sk.index[(b.rclass, 0)])
    lower = map_stack(S.p, a.dim, b.vdim, sk.budget)  # every bottom row [g, h]
    expect = np.zeros((len(fs), len(lower), b.dim, a.dim), dtype=np.int64)
    expect[:, :, : b.wdim, : a.wdim] = fs[:, None]
    expect[:, :, b.wdim:] = lower
    got = map_indices(sk.hom(i, j), S.p)
    return np.array_equal(got, np.sort(map_indices(expect, S.p), axis=None))


def hom_factorization_holds(S: SetFunctor, sk: Skeleton, i: int, j: int) -> bool:
    """|hom| = |regular-class hom| * p^{(w+u) v}."""
    a, b = sk.objects[i], sk.objects[j]
    lhs = len(sk.hom(i, j))
    rhs = len(sk.rector_hom(a.rclass, b.rclass)) * S.p ** (a.dim * b.vdim)
    return lhs == rhs


def rector_report(R: RectorSkeleton, homs: list[list[np.ndarray]]) -> dict:
    """Classes, automorphism groups and the hom-set cardinality matrix, read
    off homs, the class_hom_sets of R."""
    classes = []
    for r, rep in enumerate(R.classes):
        aut = R.aut_groups[r]
        classes.append(
            {
                "dim": rep.dim,
                "element_index": rep.index,
                "aut_order": len(aut),
                "aut_elements": aut.tolist(),
            }
        )
    return {"classes": classes, "hom_cardinalities": [[len(stack) for stack in row] for row in homs]}
