"""Finite-set-valued contravariant functors on F_p-vector spaces, up to a cap.

A ``SetFunctor`` assigns a finite set S(F_p^d) to every dimension d <= cap and
a pullback map alpha^*: S(F_p^m) -> S(F_p^n) to every linear map
alpha: F_p^n -> F_p^m.  Elements are addressed as (dim, index) pairs.
Every functor implements one pullback hook, _pull(alphas, s): the pullbacks
of one element s of S(F_p^m), or of all of them, along a (K, m, n) stack of
maps.  act_table pulls along one map and keeps the table, the only cache of
pullbacks, and act reads it; hom-sets, GL-orbits and validate pull along
whole stacks.

validate decides the functor laws exactly, on generators of the category
(its docstring has the proof); its report holds ``ok``, ``checked_pairs`` and
the ``witness`` of a failure, and a cap past the map budget raises.

On top sits one kernel calculus for every functor: the kernel of an element,
its regular reduction, regularity, the two noetherianity conditions, the
connected-component splitting and the box-sum with a trivial block.  A functor
that is not lawful by construction, such as a JSON table, is validated once
where the calculus starts; InvalidFunctorData names the witness when it fails.
The calculus reads one boolean matrix per dimension d: which elements of
S(F_p^d) each line idempotent e_l = sect proj_l = I - v e_c^T fixes, for v the
RREF vector of l and c its pivot; the idempotents are pulled as one stack, in
slices of at most PULL_PAIRS (line, element) pairs.  The kernel of s is the
span of the lines fixing s (kernel_of's docstring has the proof), its regular
reduction is sect_u^* s for u = ker s, and the regular elements are those no
line fixes.  check_weak_noetherian compares ker(alpha^* s) with
alpha^{-1}(ker s) by their lines: all GL-orbit representatives against each
stack of maps at once, the lines of alpha v read from the marks of F^m, and
it builds the two subspaces only for a violation's witness.  The box-sum
reads its restrictions by pulling single elements.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import (
    DEFAULT_MAP_BUDGET,
    BudgetExceeded,
    Subspace,
    check_prime,
    count_maps,
    decode_entries,
    elementary_invertibles,
    encode_entries,
    enumerate_subspaces,
    gl_generators,
    line_vectors,
    map_indices,
    map_slices,
    map_stack,
    preimage,
    proj_with_kernel,
    rank,
)


class SElement(NamedTuple):
    dim: int
    index: int


class InvalidFunctorData(RuntimeError):
    """Raised when input is malformed or its pullbacks break the functor laws."""


class WeakNoetherianityViolation(RuntimeError):
    """Raised when an operation needs condition ker(a* s) = a^{-1}(ker s) but it fails."""


# ---------------------------------------------------------------------------
# the functor itself


class SetFunctor:
    """Base class; concrete functors implement size(d) and the pullback hook
    _pull(alphas, s).

    ``lawful`` says that the identity and composition laws hold by
    construction, as for the built-ins and the unions and components built
    from them, so no validation is needed.  The kernel calculus validates
    any other functor once and sets ``lawful`` on it when validate passes.
    """

    lawful = False

    def __init__(self, p: int, cap: int, name: str = "S"):
        self.p = check_prime(p)
        self.cap = cap
        self.name = name
        self._table_cache: dict = {}
        self._kernel_cache: dict[SElement, Subspace] = {}
        self._fixed_lines: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def size(self, d: int) -> int:
        raise NotImplementedError

    def _pull(self, alphas: np.ndarray, s: int | np.ndarray | slice) -> np.ndarray:
        """The pullback hook.  For a (K, m, n) stack of maps F^n -> F^m with
        entries in 0..p-1, and s an index into S(m), an int array of them or
        slice(None) for all of it: the array whose row k is
        act_table(alphas[k])[s], (K,), (K, *s.shape) or (K, size(m)).
        Nothing is kept."""
        raise NotImplementedError

    def act(self, alpha: np.ndarray, s: SElement | int) -> SElement:
        """Pullback along alpha: F^n -> F^m of an element of S(F^m), read
        from act_table."""
        table = self.act_table(alpha)
        if isinstance(s, SElement):
            if s.dim != alpha.shape[0]:
                raise ValueError("element lives at the wrong dimension")
            s = s.index
        return SElement(alpha.shape[1], int(table[s]))

    def act_table(self, alpha: np.ndarray) -> np.ndarray:
        """Pullback along alpha, a (rows, cols) int array with entries in
        0..p-1, as an index array S(rows) -> S(cols), kept per map under its
        shape and bytes.  Any other array raises ValueError."""
        key = (alpha.shape, alpha.tobytes())
        hit = self._table_cache.get(key)
        if hit is None:
            if alpha.ndim != 2 or alpha.dtype.kind not in "iu" or not ((0 <= alpha) & (alpha < self.p)).all():
                raise ValueError(f"not a matrix with int entries in 0..{self.p - 1}: {alpha.tolist()}")
            if max(alpha.shape) > self.cap:
                raise ValueError("map exceeds the cap")
            hit = self._table_cache[key] = self._pull(alpha.astype(np.int64)[None], slice(None))[0]
        return hit

    def elements(self, d: int):
        return [SElement(d, i) for i in range(self.size(d))]

    # -- optional hooks ----------------------------------------------------

    def describe(self) -> dict:
        return {"name": self.name, "p": self.p, "cap": self.cap}


class TableFunctor(SetFunctor):
    """Explicit tables: sizes per dimension plus one index array per map."""

    def __init__(self, p: int, cap: int, sizes: list[int], action: dict, name: str = "table"):
        super().__init__(p, cap, name)
        self.sizes = list(sizes)
        if len(self.sizes) != cap + 1:
            raise InvalidFunctorData("need one set size per dimension 0..cap")
        self.action = {}  # (cols, rows, data) -> int64 index array S(rows) -> S(cols)
        for (cols, rows, data), tab in action.items():
            if max(rows, cols) > cap or len(tab) != self.sizes[rows]:
                broken = f"has {len(tab)} entries, not one per element of S({rows})"
            elif bad := [i for i in tab if type(i) is not int or i not in range(self.sizes[cols])]:
                broken = f"has an entry that is {'out of range' if type(bad[0]) is int else 'not an int'}: {bad[0]!r}"
            else:
                self.action[cols, rows, data] = np.array(tab, dtype=np.int64)
                continue
            raise InvalidFunctorData(f"pullback table {_table_key(rows, cols, data)} {broken}")

    def size(self, d: int) -> int:
        return self.sizes[d]

    def _pull(self, alphas: np.ndarray, s: int | slice) -> np.ndarray:
        m, n = alphas.shape[1:]
        tabs = []
        for data in (a.tobytes() for a in alphas.astype(np.uint8)):
            tab = self.action.get((n, m, data))
            if tab is None:
                raise InvalidFunctorData(f"the table has no pullback along the map {_table_key(m, n, data)}")
            tabs.append(tab[s])
        return np.array(tabs, dtype=np.int64)


class RepresentableFunctor(SetFunctor):
    """S_U(W) = Hom(W, U) with pullback by precomposition."""

    lawful = True

    def __init__(self, p: int, u_dim: int, cap: int):
        super().__init__(p, cap, name=f"representable(U=F_{p}^{u_dim})")
        self.u_dim = u_dim
        self._stacks: dict[int, np.ndarray] = {}

    def _table(self, d: int) -> np.ndarray:
        """The element matrices of S(F^d) as one (N, u, d) stack in enumerate_maps order."""
        stack = self._stacks.get(d)
        if stack is None:
            stack = self._stacks[d] = map_stack(self.p, d, self.u_dim)
            stack.setflags(write=False)
        return stack

    def size(self, d: int) -> int:
        return count_maps(self.p, d, self.u_dim)

    def element_map(self, s: SElement) -> np.ndarray:
        """The (u, dim) matrix of s, read-only."""
        return self._table(s.dim)[s.index]

    def _pull(self, alphas: np.ndarray, s: int | slice) -> np.ndarray:
        return _products(self._table(alphas.shape[1])[s], alphas, self.p)


class OrbitFunctor(SetFunctor):
    """Hom(W, U) modulo a subgroup of GL(U) acting by postcomposition."""

    lawful = True

    def __init__(self, p: int, u_dim: int, generators: list[np.ndarray], cap: int):
        super().__init__(p, cap, name=f"orbit(U=F_{p}^{u_dim})")
        self.u_dim = u_dim
        self._group_stack = _mulclose([np.eye(u_dim, dtype=np.int64), *generators], self.p)
        self._rep: dict[int, np.ndarray] = {}  # one representative matrix per orbit
        self._orbit_lookup: dict[int, np.ndarray] = {}  # orbit id by enumerate_maps position

    def _table(self, d: int) -> np.ndarray:
        """Orbit representatives of S(F^d); orbits are numbered by their first
        map in enumerate_maps order."""
        if d not in self._rep:
            stack = map_stack(self.p, d, self.u_dim)
            lookup = np.full(len(stack), -1, dtype=np.int64)
            reps: list[int] = []
            for i, m in enumerate(stack):
                if lookup[i] < 0:
                    lookup[map_indices(self._group_stack @ m % self.p, self.p)] = len(reps)
                    reps.append(i)
            self._rep[d] = stack[reps]
            self._orbit_lookup[d] = lookup
        return self._rep[d]

    def size(self, d: int) -> int:
        return len(self._table(d))

    def _pull(self, alphas: np.ndarray, s: int | slice) -> np.ndarray:
        """The representatives times the maps, each product mapped to its
        orbit through the lookup array."""
        products = _products(self._table(alphas.shape[1])[s], alphas, self.p)
        self._table(alphas.shape[2])
        return self._orbit_lookup[alphas.shape[2]][products]


class SubspaceFunctor(SetFunctor):
    """S(W) = set of subspaces of W, pullback by preimage.

    A valid functor that satisfies the weaker noetherianity condition but is
    not noetherian: the zero subspace is regular in every dimension.
    """

    lawful = True

    def __init__(self, p: int, cap: int):
        super().__init__(p, cap, name="subspaces")
        self._elts = {d: enumerate_subspaces(p, d) for d in range(cap + 1)}
        self._index = {d: {s: i for i, s in enumerate(elts)} for d, elts in self._elts.items()}

    def size(self, d: int) -> int:
        return len(self._elts[d])

    def _pull(self, alphas: np.ndarray, s: int | slice) -> np.ndarray:
        elts, index = self._elts[alphas.shape[1]], self._index[alphas.shape[2]]
        ids = np.arange(len(elts))[s]
        pulled = [[index[preimage(a, elts[i])] for i in ids.flat] for a in alphas]
        return np.array(pulled, dtype=np.int64).reshape(len(alphas), *ids.shape)


def _products(elts: np.ndarray, alphas: np.ndarray, p: int) -> np.ndarray:
    """Every element matrix of a contiguous (u, m) or (N, u, m) stack times
    every map of a (K, m, n) stack in one product, which reads the elements as
    a (N u, m) view, each result read back as its enumerate_maps position."""
    flat = elts.reshape(math.prod(elts.shape[:-1]), elts.shape[-1])
    products = (flat @ alphas % p).reshape(len(alphas), *elts.shape[:-1], alphas.shape[2])
    return map_indices(products, p)


def _mulclose(gens: list[np.ndarray], p: int) -> np.ndarray:
    """The monoid generated by int64 (u, u) matrices with entries in 0..p-1,
    as a (K, u, u) stack sorted by row-major entries."""
    els = {g.tobytes(): g for g in gens}
    frontier = list(els.values())
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a @ b % p
                if c.tobytes() not in els:
                    els[c.tobytes()] = c
                    new.append(c)
        frontier = new
    return np.array(sorted(els.values(), key=lambda m: m.ravel().tolist()))


def disjoint_union(a: SetFunctor, b: SetFunctor) -> SetFunctor:
    """Coproduct of two set functors with the same field and cap."""
    if (a.p, a.cap) != (b.p, b.cap):
        raise ValueError("mismatched functors")

    class _Union(SetFunctor):
        lawful = a.lawful and b.lawful

        def size(self, d):
            return a.size(d) + b.size(d)

        def _pull(self, alphas, s):
            """a's elements first, then b's, their pullbacks shifted past S_a(n).
            A single index makes ids 0-d, and a 0-d mask indexes it as an
            axis of length one or zero."""
            m, n = alphas.shape[1:]
            ids = np.arange(self.size(m))[s]
            in_a = ids < a.size(m)
            out = np.empty((len(alphas), *ids.shape), dtype=np.int64)
            out[:, in_a] = a._pull(alphas, ids[in_a])
            out[:, ~in_a] = a.size(n) + b._pull(alphas, ids[~in_a] - a.size(m))
            return out

    return _Union(a.p, a.cap, name=f"{a.name}+{b.name}")


def kernel_mismatch_example(p: int = 2) -> TableFunctor:
    """A genuine functor on dimensions <= 2 that fails the weaker noetherianity
    condition: S(2) holds a regular element whose pullbacks all collapse onto
    the other element, so rank-one endomorphisms produce kernels bigger than
    the preimage of the kernel.

    Only defined for p = 2 (the table is hand-built).
    """
    if p != 2:
        raise ValueError("the crafted table is built for p = 2")
    cap = 2
    sizes = [1, 1, 2]
    action: dict = {}
    for n in range(cap + 1):
        for m in range(cap + 1):
            for alpha in map_stack(p, n, m):
                if m < 2:
                    tab = tuple(0 for _ in range(sizes[m]))
                elif n < 2:
                    tab = (0, 0)
                else:  # endomorphisms of F_2^2 acting on {b, c}
                    tab = (0, 1) if rank(alpha, p) == 2 else (0, 0)
                action[(n, m, alpha.astype(np.uint8).tobytes())] = tab
    return TableFunctor(p, cap, sizes, action, name="kernel-mismatch")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    checked_pairs: int
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def validate(S: SetFunctor) -> ValidationReport:
    """Decide the identity and composition laws within the cap, exactly.

    Identities must act as identities, and (g beta)^* = beta^* g^* must hold
    for every generator g and every map beta: F^n -> F^m into its source, n
    <= cap; ``checked_pairs`` counts the pairs (g, beta), and a failure
    reports (g, beta, s) with s the first element where the sides differ.
    The generators, per d <= cap, are the elementary invertibles of F^d and,
    below the cap, the projection F^{d+1} -> F^d dropping the last coordinate
    and the inclusion F^d -> F^{d+1}.

    Proof that this covers every composite: a map alpha: F^m -> F^x of rank r
    is P iota pi Q, with P, Q invertible, pi: F^m -> F^r dropping coordinates
    and iota: F^r -> F^x including, all inside the cap as r <= min(m, x).  The
    elementary invertibles generate the finite group GL_d, hence also as a
    monoid, so alpha is a word in the generators.  By induction on its
    length: the empty word is an identity, covered by the identity law, and
    for alpha = g alpha' the generator check at alpha' beta, the induction
    hypothesis and the generator check at alpha' give (alpha beta)^* =
    (alpha' beta)^* g^* = beta^* alpha'^* g^* = beta^* alpha^*.

    The betas of one g and n are checked one map_slices slice at a time, so
    the two sides of one check copy one slice of rows: row k of blocks[n, m]
    is the table along the k-th map F^n -> F^m in enumerate_maps order, stored
    in the narrowest signed type that holds the indices of S(n).

    BudgetExceeded is raised before any pair is checked when F^cap -> F^cap
    has more maps than the default map budget.
    """
    dims = range(S.cap + 1)
    for d in dims:
        moved = np.flatnonzero(S.act_table(np.eye(d, dtype=np.int64)) != np.arange(S.size(d)))
        if moved.size:
            return ValidationReport(False, 0, ("identity", d, int(moved[0])))
    largest = count_maps(S.p, S.cap, S.cap)
    if largest > DEFAULT_MAP_BUDGET:
        raise BudgetExceeded("maps", largest, DEFAULT_MAP_BUDGET)
    blocks = {}
    for n in dims:
        for m in dims:
            block = blocks[n, m] = np.empty((count_maps(S.p, n, m), S.size(m)), np.min_scalar_type(-S.size(n)))
            start = 0
            for betas in map_slices(S.p, n, m):
                block[start:start + len(betas)] = S._pull(betas, slice(None))
                start += len(betas)
    checked = 0
    for d in dims:
        gens = elementary_invertibles(S.p, d)
        if d < S.cap:
            eye = np.eye(d + 1, dtype=np.int64)
            gens += [eye[:d], eye[:, :d]]
        for g in gens:
            t_g = S.act_table(g)
            rows, cols = g.shape
            for n in dims:
                start = 0
                for betas in map_slices(S.p, n, cols):
                    lhs = blocks[n, cols][start:start + len(betas), t_g]
                    rhs = blocks[n, rows][map_indices(g @ betas % S.p, S.p)]
                    bad = np.flatnonzero((lhs != rhs).any(axis=1))
                    if bad.size:
                        k = int(bad[0])
                        s = SElement(rows, int(np.flatnonzero(lhs[k] != rhs[k])[0]))
                        return ValidationReport(False, checked + k + 1, (g, betas[k], s))
                    checked += len(betas)
                    start += len(betas)
    return ValidationReport(True, checked)


def _require_laws(S: SetFunctor) -> None:
    """The gate of the kernel calculus: a functor that is not lawful by
    construction is validated, once, and marked lawful when it passes;
    InvalidFunctorData names the witness when it does not."""
    if S.lawful:
        return
    rep = validate(S)
    if not rep.ok:
        if isinstance(rep.witness[0], str):
            _, d, i = rep.witness
            broken = f"the identity of F^{d} moves element {i} of S({d})"
        else:
            g, beta, s = rep.witness
            broken = (
                f"pulling element {s.index} of S({s.dim}) back along g = {_map_key(g)} and then along "
                f"beta = {_map_key(beta)} differs from pulling it back along g beta = {_map_key(g @ beta % S.p)}"
            )
        raise InvalidFunctorData(f"{S.name} is not a functor: {broken}")
    S.lawful = True


# ---------------------------------------------------------------------------
# kernel calculus


# Most (map, element) pairs one pull of the kernel calculus covers: the line
# idempotents of _fixed_lines and the maps of _weak_noetherian_on_orbits are
# pulled in slices of at most this many pairs with the elements they act on,
# so memory stays flat when S(d) is large.
PULL_PAIRS = 1 << 11


def _fixed_lines(S: SetFunctor, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The lines l of F^d, in enumerate_subspaces order, as the rows of the
    (L, d) matrix of their RREF vectors, and the boolean matrix whose row for
    l marks the s in S(d) with e_l^* s = s, for e_l the idempotent with
    kernel l of _line_idempotents.  Built once per dimension, after the
    gate, and kept on S.  The idempotents are pulled in stacks of at most
    PULL_PAIRS (line, element) pairs, and their tables are not kept."""
    hit = S._fixed_lines.get(d)
    if hit is None:
        _require_laws(S)
        lines = line_vectors(S.p, d)
        idems = _line_idempotents(lines, S.p)
        ids = np.arange(S.size(d))
        fixed = np.empty((len(lines), ids.size), dtype=bool)
        step = max(1, PULL_PAIRS // max(1, ids.size))
        for start in range(0, len(lines), step):
            fixed[start:start + step] = S._pull(idems[start:start + step], slice(None)) == ids
        hit = S._fixed_lines[d] = (lines, fixed)
    return hit


def _line_idempotents(lines: np.ndarray, p: int) -> np.ndarray:
    """The (L, d, d) stack of the e_l = I - v e_c^T for the RREF vectors v of
    an (L, d) matrix of lines, c the pivot of v: the matrices sect proj of
    proj_with_kernel, with kernel the line of v."""
    pivots = (lines != 0) & (np.cumsum(lines != 0, axis=1) == 1)
    return (np.eye(lines.shape[1], dtype=np.int64) - lines[:, :, None] * pivots[:, None, :]) % p


def kernel_of(S: SetFunctor, s: SElement) -> Subspace:
    """The unique maximal subspace U with s in the image of the pullback of
    the canonical projection along U.

    It is the span of the lines l with e_l^* s = s.  Proof, by the identity
    and composition laws, which hold past the gate in _fixed_lines.  (1) For
    any idempotent e = sigma pi with kernel u, where pi: F^d -> F^{d - dim u}
    is onto and pi sigma = id: if s = pi^* t then e^* s = pi^* (pi sigma)^* t
    = s, and conversely e^* s = s gives s = pi^* (sigma^* s); and pi^* t = s
    forces t = (pi sigma)^* t = sigma^* s, the only t.  So whether s factors through a
    projection with kernel u depends on u alone, as two such projections
    differ by an invertible.  (2) Factoring subspaces are closed under
    subspaces: pi_u = q pi_v for v inside u.  (3) They are closed under sums:
    write F^d = (u & v) + u' + v' + C with u = (u & v) + u' and v = (u & v) +
    v', and let e_u project onto v' + C and e_v onto u' + C along u and v;
    then e_u e_v projects onto C along u + v, and (e_u e_v)^* s = e_v^* e_u^*
    s = s.  (4) So the factoring subspaces are the subspaces of one maximal
    u, the span of the factoring lines, and no two maximal candidates are
    incomparable.
    """
    hit = S._kernel_cache.get(s)
    if hit is None:
        lines, fixed = _fixed_lines(S, s.dim)
        hit = S._kernel_cache[s] = Subspace.from_vectors(lines[fixed[:, s.index]], S.p, s.dim)
    return hit


def tilde(S: SetFunctor, s: SElement) -> SElement:
    """The regular reduction: the unique t with proj^* t = s for the canonical
    projection along ker(s): sect^* s, by (1) of kernel_of."""
    t = S.act(proj_with_kernel(kernel_of(S, s))[1], s)
    if kernel_of(S, t).dim != 0:
        raise WeakNoetherianityViolation(f"reduction of {s} is not regular")
    return t


def regular_set(S: SetFunctor, d: int) -> list[SElement]:
    """The elements of S(d) with kernel 0: those that no line idempotent fixes."""
    return [SElement(d, int(i)) for i in np.flatnonzero(~_fixed_lines(S, d)[1].any(axis=0))]


@dataclass
class WeakNoetherianReport:
    ok: bool
    checked: int
    window: int
    witness: tuple | None = None
    partial: bool = False

    def __bool__(self):
        return self.ok


def check_weak_noetherian(S: SetFunctor, budget: int = DEFAULT_MAP_BUDGET) -> WeakNoetherianReport:
    """Compare ker(alpha^* s) with alpha^{-1}(ker s) for every pair (alpha, s)
    within the cap; ``checked`` counts those pairs.

    When the map enumeration for the full cap exceeds the budget, the check
    runs on the largest affordable window instead and the certificate is
    marked partial, carrying that window.

    A functor that is not lawful by construction is validated first, and
    InvalidFunctorData names the witness when that fails.  The test at (alpha,
    s) is the test at (g alpha h, (g^{-1})^* s) for g in GL_m and h in GL_n,
    so it is decided on one s per GL_m-orbit of S(m) and one alpha per image
    subspace; when that finds a violation, the exhaustive loop runs and
    reports its first witness.
    """
    _require_laws(S)
    window = S.cap
    while window > 0 and any(
        count_maps(S.p, n, m) > budget for n in range(window + 1) for m in range(window + 1)
    ):
        window -= 1
    dims = range(window + 1)
    if _weak_noetherian_on_orbits(S, window):
        checked = sum(S.size(m) * count_maps(S.p, n, m) for m in dims for n in dims)
        return WeakNoetherianReport(True, checked, window, None, window < S.cap)
    return _weak_noetherian_loop(S, window, budget)


def _weak_noetherian_on_orbits(S: SetFunctor, window: int) -> bool:
    """The pair test on the GL_m-orbit representatives s of S(m) and, for each
    subspace W of F^m with dim W <= n, the one map alpha: F^n -> F^m whose
    columns are the RREF basis of W followed by zeros: every surjection onto
    W is that map times an invertible.

    The line of v lies in alpha^{-1}(ker s) when alpha v is zero or its line
    lies in ker s, which the marks of _fixed_lines(S, m) say, found through
    _line_index; it lies in ker(alpha^* s) when the marks of F^n say so.  So
    each stack of maps takes one product with the lines of F^n and one pull
    of the representatives, at most PULL_PAIRS (map, representative) pairs
    at a time; the rest of S(m) is never pulled."""
    for m in range(window + 1):
        reps = _orbit_representatives(S, m)
        lines_m, fixed_m = _fixed_lines(S, m)
        line_of = _line_index(lines_m, S.p)
        subspaces = enumerate_subspaces(S.p, m)
        spans = np.zeros((len(subspaces), m, window), dtype=np.int64)
        for span, w in zip(spans, subspaces):
            span[:, : w.dim] = w.basis_arr.T
        weights = S.p ** np.arange(m - 1, -1, -1)
        for n in range(1, window + 1):  # F^0 has no lines
            lines_n, fixed_n = _fixed_lines(S, n)
            alphas = spans[[w.dim <= n for w in subspaces], :, :n]
            # row k, column l: the line of F^m through alphas[k] lines_n[l]
            images = line_of[weights @ (alphas @ lines_n.T % S.p)]
            step = max(1, PULL_PAIRS // len(alphas))
            for start in range(0, len(reps), step):
                chunk = reps[start:start + step]
                marks_m = np.vstack([fixed_m[:, chunk], np.ones((1, len(chunk)), dtype=bool)])
                pulled = S._pull(alphas, chunk)  # (K, R)
                if (marks_m[images] != fixed_n[:, pulled].swapaxes(0, 1)).any():
                    return False
    return True


def _line_index(lines: np.ndarray, p: int) -> np.ndarray:
    """The line of every vector of F^d, by the vector read as a base-p number
    with its first entry most significant: the row of lines spanning it, or
    len(lines) for the zero vector."""
    d = lines.shape[1]
    multiples = np.arange(1, p)[:, None, None] * lines % p
    table = np.full(p**d, len(lines), dtype=np.int64)
    table[multiples @ p ** np.arange(d - 1, -1, -1)] = np.arange(len(lines))
    return table


def _kernel_mismatches(S: SetFunctor, alphas: np.ndarray, s: int, proj: np.ndarray) -> np.ndarray:
    """The positions k of a (K, m, n) stack of maps with ker(alphas[k]^* s) !=
    alphas[k]^{-1}(ker s), for s an index into S(m) and proj a map with
    kernel ker s.  Two subspaces are equal when they hold the same lines: the
    line of v lies in the preimage when proj alphas[k] v = 0, and in ker t
    exactly when _fixed_lines marks it for t, by kernel_of's proof."""
    lines, fixed = _fixed_lines(S, alphas.shape[2])
    inside = ~((proj @ alphas @ lines.T) % S.p).any(axis=1)
    return np.flatnonzero((inside != fixed[:, S._pull(alphas, s)].T).any(axis=1))


def _orbit_representatives(S: SetFunctor, m: int) -> np.ndarray:
    """The index of the first element of each GL_m-orbit of S(m).  Every
    element starts labelled by its index, and labels take the minimum across
    the pullback tables of gf.gl_generators, at most three matrices that
    generate GL_m, in both directions until they settle; the roots keep
    their own index."""
    tables = [S.act_table(g) for g in gl_generators(S.p, m)]
    ids = np.arange(S.size(m))
    label = ids.copy()
    settled = False
    while not settled:
        before = label.copy()
        for tab in tables:
            np.minimum(label, label[tab], out=label)
            np.minimum.at(label, tab, label.copy())
        settled = np.array_equal(before, label)
    return np.flatnonzero(label == ids)


def _weak_noetherian_loop(S: SetFunctor, window: int, budget: int) -> WeakNoetherianReport:
    """Every pair in enumeration order, one map_slices stack at a time,
    stopping at the first violation; only that pair's two kernels are built,
    for its witness."""
    checked = 0
    for m in range(window + 1):
        for s in S.elements(m):
            ker_s = kernel_of(S, s)
            proj = proj_with_kernel(ker_s)[0]
            for n in range(window + 1):
                for alphas in map_slices(S.p, n, m, budget):
                    bad = _kernel_mismatches(S, alphas, s.index, proj)
                    if bad.size:
                        k = int(bad[0])
                        alpha = alphas[k]
                        witness = (alpha, s, kernel_of(S, S.act(alpha, s)), preimage(alpha, ker_s))
                        return WeakNoetherianReport(False, checked + k + 1, window, witness, window < S.cap)
                    checked += len(alphas)
    return WeakNoetherianReport(True, checked, window, None, window < S.cap)


@dataclass
class NoetherianReport:
    regular_counts: list[int]
    last_regular_dim: int
    vanishes_before_cap: bool
    window: int


def check_noetherian(S: SetFunctor) -> NoetherianReport:
    """Report where regular elements live.  The vanishing condition is only
    certified inside the cap; the report carries the window explicitly."""
    counts = [len(regular_set(S, d)) for d in range(S.cap + 1)]
    last = max((d for d, c in enumerate(counts) if c), default=-1)
    return NoetherianReport(counts, last, last < S.cap, S.cap)


# ---------------------------------------------------------------------------
# connectedness and the box-sum


def is_connected(S: SetFunctor) -> bool:
    return S.size(0) == 1


def epsilon(S: SetFunctor, d: int) -> SElement:
    """The pullback of the unique element of S(0) to dimension d."""
    if not is_connected(S):
        raise ValueError("epsilon needs a connected functor")
    return S.act(np.zeros((0, d), dtype=np.int64), SElement(0, 0))


class _Component(SetFunctor):
    """The elements of base restricting to one element gamma of S(0), by the
    sorted array of their base indices per dimension."""

    def __init__(self, base: SetFunctor, members: dict[int, np.ndarray], gamma: int):
        super().__init__(base.p, base.cap, name=f"{base.name}^{gamma}")
        self.lawful = base.lawful
        self.base = base
        self.members = members

    def size(self, d):
        return len(self.members[d])

    def _pull(self, alphas, s):
        """The base pullbacks of the members, each found by its position
        among the members of S(n): pullbacks stay in the component."""
        m, n = alphas.shape[1:]
        return np.searchsorted(self.members[n], self.base._pull(alphas, self.members[m][s]))


def split_components(S: SetFunctor) -> list[SetFunctor]:
    """The partition of S by the component of S(0) each element restricts to."""
    # the pullback along the inclusion of 0 into F^d restricts S(d) to S(0)
    restrict = [S.act_table(np.zeros((d, 0), dtype=np.int64)) for d in range(S.cap + 1)]
    return [
        _Component(S, {d: np.flatnonzero(tab == gamma) for d, tab in enumerate(restrict)}, gamma)
        for gamma in range(S.size(0))
    ]


def boxplus(S: SetFunctor, psi: SElement, extra_dim: int, check_unique: bool = False) -> SElement:
    """The unique element of S(W + V) restricting to psi on W and to the
    trivial element on V; concretely the pullback of psi along the projection.
    The pullback and its two restrictions are pulls of single elements, and
    check_unique pulls all of S(W + V) along the two inclusions; no table is
    kept."""
    w, v = psi.dim, extra_dim
    if w + v > S.cap:
        raise ValueError("box-sum exceeds the cap")
    res = int(S._pull(np.eye(w, w + v, dtype=np.int64)[None], psi.index)[0])
    incl_w = np.eye(w + v, w, dtype=np.int64)[None]
    incl_v = np.eye(w + v, v, -w, dtype=np.int64)[None]
    if S._pull(incl_w, res)[0] != psi.index or S._pull(incl_v, res)[0] != epsilon(S, v).index:
        raise InvalidFunctorData("box-sum restrictions failed")
    if check_unique:
        on_w, on_v = S._pull(incl_w, slice(None))[0], S._pull(incl_v, slice(None))[0]
        hits = np.count_nonzero((on_w == psi.index) & (on_v == epsilon(S, v).index))
        if hits != 1:
            raise WeakNoetherianityViolation(f"box-sum of {psi} (+{v}) is not unique: {hits} candidates")
    return SElement(w + v, res)


# ---------------------------------------------------------------------------
# JSON interchange


def _map_key(m: np.ndarray) -> str:
    """The JSON key of the pullback table along m: RxC:entries."""
    return f"{m.shape[0]}x{m.shape[1]}:{encode_entries(m)}"


def _table_key(rows: int, cols: int, data: bytes) -> str:
    """_map_key of the map a TableFunctor stores as row-major uint8 bytes."""
    return _map_key(np.frombuffer(data, dtype=np.uint8).reshape(rows, cols))


def _parse_map_key(key: str, p: int) -> np.ndarray:
    """The map of a key written by _map_key, or with one character per entry;
    InvalidFunctorData names a malformed key."""
    match = re.fullmatch(r"([0-9]+)x([0-9]+):([0-9.]*)", key)
    if match is None:
        raise InvalidFunctorData(f"map key {key!r} is not of the form RxC:entries")
    try:
        return decode_entries(match[3], int(match[1]), int(match[2]), p)
    except ValueError as exc:
        raise InvalidFunctorData(f"map key {key!r}: {exc}") from None


def to_json_dict(S: SetFunctor) -> dict:
    """Materialize the action tables into the sfunctor.json layout."""
    total = sum(
        count_maps(S.p, n, m) for n in range(S.cap + 1) for m in range(S.cap + 1)
    )
    if total > DEFAULT_MAP_BUDGET:
        raise BudgetExceeded("maps", total, DEFAULT_MAP_BUDGET)
    action = {}
    for n in range(S.cap + 1):
        for m in range(S.cap + 1):
            for alphas in map_slices(S.p, n, m):
                for arr, tab in zip(alphas, S._pull(alphas, slice(None)).tolist()):
                    action[_map_key(arr)] = tab
    return {
        "p": S.p,
        "cap": S.cap,
        "sets": [S.size(d) for d in range(S.cap + 1)],
        "action": action,
    }


def from_json_dict(doc: dict, name: str = "table") -> TableFunctor:
    for key, kind in (("p", int), ("cap", int), ("sets", list), ("action", dict)):
        if type(doc.get(key)) is not kind:
            raise InvalidFunctorData(f"functor table needs the key {key!r} holding a {kind.__name__}")
    p, cap, sizes = check_prime(doc["p"]), doc["cap"], doc["sets"]
    if cap < 0:
        raise InvalidFunctorData(f"functor table: 'cap' must be non-negative, not {cap}")
    if not all(type(n) is int and n >= 0 for n in sizes):
        raise InvalidFunctorData(f"functor table: 'sets' must hold non-negative ints, not {sizes}")
    action = {}
    for key, tab in doc["action"].items():
        if not isinstance(tab, list):
            raise InvalidFunctorData(f"pullback table {key} is not a list")
        m = _parse_map_key(key, p)
        stored = (m.shape[1], m.shape[0], m.astype(np.uint8).tobytes())
        if stored in action:
            raise InvalidFunctorData(f"map key {key!r} names the map {_map_key(m)} a second time")
        action[stored] = tab
    return TableFunctor(p, cap, sizes, action, name=name)


def from_builtin_spec(doc: dict, cap: int) -> SetFunctor:
    """Builtins are specified as {"type": "representable"|"orbit", "p": ..., "U_dim": ...,
    "gamma_generators": [...]}, with the raw-table layout handled by from_json_dict."""
    p = doc.get("p", 2)
    kind = doc.get("type")
    if not (type(cap) is int and cap >= 0):
        raise InvalidFunctorData(f"a builtin spec needs a non-negative int cap, not {cap!r}")
    if kind in ("representable", "orbit") and not (type(doc.get("U_dim")) is int and doc["U_dim"] >= 0):
        raise InvalidFunctorData(f"a {kind} spec needs the key 'U_dim' holding a non-negative int")
    if kind == "representable":
        return RepresentableFunctor(p, doc["U_dim"], cap)
    if kind == "orbit":
        return OrbitFunctor(p, doc["U_dim"], _gamma_generators(doc, check_prime(p)), cap)
    if kind == "subspaces":
        return SubspaceFunctor(p, cap)
    if kind == "table":
        return from_json_dict(doc)
    raise ValueError(f"unknown builtin type {kind!r}")


def _gamma_generators(doc: dict, p: int) -> list[np.ndarray]:
    """The 'gamma_generators' of an orbit spec as int64 matrices: a list of
    U_dim x U_dim matrices of ints (not bools) in 0..p-1, each invertible mod
    p; InvalidFunctorData names anything else."""
    u, gens = doc["U_dim"], doc.get("gamma_generators", [])
    if not isinstance(gens, list):
        raise InvalidFunctorData(f"'gamma_generators' must be a list of {u}x{u} matrices, not {gens!r}")
    out = []
    for g in gens:
        if not (
            isinstance(g, list)
            and len(g) == u
            and all(isinstance(row, list) and len(row) == u for row in g)
            and all(type(x) is int and 0 <= x < p for row in g for x in row)
        ):
            raise InvalidFunctorData(f"'gamma_generators' holds {g!r}, not a {u}x{u} matrix of ints in 0..{p - 1}")
        m = np.array(g, dtype=np.int64).reshape(u, u)
        if rank(m, p) < u:
            raise InvalidFunctorData(f"'gamma_generators' holds {g!r}, which is not invertible mod {p}")
        out.append(m)
    return out
