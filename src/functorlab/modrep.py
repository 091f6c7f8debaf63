"""Modular representation engine for small finite groups over F_p.

Groups are element tables; modules are left modules given by one matrix per
group generator.  ``find_invariant_subspace`` is the package's one splitting
engine (the MeatAxe with the Holt-Rees certificate) and works on any list of
operator matrices with a required pool of algebra elements to draw from:
group modules pass their generators and element matrices, and the
simplicity certificate of functors passes the generators of End(o) at one
object with their pairwise products.  It searches with seeded random
algebra elements for a singular element with a small kernel, spins the
kernel vectors (and the dual kernel under the transposed action), and
certifies irreducibility when every spin fills the space.  The local
minimal polynomials of the algebra elements are factored in this module
(squarefree parts, then Berlekamp), so numpy is the only dependency.  A
spin is ``gf.closure`` on one piece: each round multiplies only the vectors
new since the last round, and it stops as soon as the space is full.  Simple
modules are collected by chopping the regular module to composition
factors.  Isomorphism is decided exactly from the intertwiner space: an
invertible element is found, or its absence is proved by a full scan, or
the search raises ``BudgetExceeded``.

Symmetric groups carry the partition machinery: p-regular partitions and the
symmetrizer products whose right ideals realize the simple modules.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
import numpy as np

from .gf import (
    SCAN_BUDGET,
    SplittingFailure,
    closure,
    intertwiner_space,
    nonzero_combinations,
    nullspace,
    rank,
    restrict,
    rref,
    solve,
    spans_invertible,
)

DEFAULT_GROUP_BUDGET = 1000
MAX_TRIES = 60  # draws of theta before find_invariant_subspace gives up


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """Multiplication table group; labels are arbitrary hashables."""

    def __init__(self, labels, table: np.ndarray, name: str = "G"):
        self.labels = list(labels)
        self.table = np.asarray(table, dtype=np.int64)
        self.name = name
        n = len(self.labels)
        if self.table.shape != (n, n):
            raise ValueError("table shape mismatch")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self.generators = self._greedy_generators()

    def __len__(self):
        return len(self.labels)

    @property
    def order(self):
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def _find_identity(self) -> int:
        n = len(self.labels)
        for e in range(n):
            if all(self.mul(e, x) == x == self.mul(x, e) for x in range(n)):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self) -> np.ndarray:
        n = len(self.labels)
        inv = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            js = np.nonzero(self.table[i] == self.identity)[0]
            if js.size != 1 or self.mul(int(js[0]), i) != self.identity:
                raise ValueError("not a group: bad inverses")
            inv[i] = js[0]
        return inv

    def _greedy_generators(self) -> list[int]:
        gens: list[int] = []
        closure = {self.identity}
        for i in range(len(self.labels)):
            if i in closure:
                continue
            gens.append(i)
            closure = self._close(gens)
            if len(closure) == len(self.labels):
                break
        return gens

    def _close(self, gens: list[int]) -> set[int]:
        els = {self.identity} | set(gens)
        frontier = list(els)
        while frontier:
            new = []
            for g in gens:
                for x in frontier:
                    y = self.mul(g, x)
                    if y not in els:
                        els.add(y)
                        new.append(y)
            frontier = new
        return els

    def validate(self) -> bool:
        """Light's associativity test: (x g) y = x (g y) for all x, y and each
        generator g.  The elements passing it form a submonoid, so it covers
        the table once the generators, which callers may set, generate it."""
        if len(self._close(self.generators)) != len(self.labels):
            return False
        T = self.table
        return all(np.array_equal(T[T[:, g], :], T[:, T[g, :]]) for g in self.generators)

    @staticmethod
    def from_mul(elements, mul, name: str = "G") -> "FiniteGroup":
        elements = list(elements)
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        table = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                table[i, j] = idx[mul(a, b)]
        return FiniteGroup(elements, table, name)

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup([()], np.zeros((1, 1), dtype=np.int64), "1")

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        """Permutations of range(n) in lexicographic order, composed as
        compose_perm: each pair's product is found by its base-n code."""
        labels = list(itertools.permutations(range(n)))
        perms = np.array(labels, dtype=np.int64).reshape(len(labels), n)
        weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        table = np.searchsorted(perms @ weights, perms[:, perms] @ weights)
        return FiniteGroup(labels, table, name=f"Sym({n})")

    @staticmethod
    def product(A: "FiniteGroup", B: "FiniteGroup") -> "FiniteGroup":
        labels = [(a, b) for a in A.labels for b in B.labels]
        nb = len(B.labels)
        n = len(labels)
        table = (A.table[:, None, :, None] * nb + B.table[None, :, None, :]).reshape(n, n)
        G = FiniteGroup(labels, table, f"{A.name}x{B.name}")
        # prefer factor-wise generators; the greedy set stays as fallback
        gens = [a * nb + B.identity for a in A.generators] + [A.identity * nb + b for b in B.generators]
        if gens:
            G.generators = gens
        return G


def compose_perm(a: tuple, b: tuple) -> tuple:
    """a*b applies b first."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_sign(a: tuple) -> int:
    seen = [False] * len(a)
    sign = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# modules


@dataclass
class GroupModule:
    group: FiniteGroup
    p: int
    dim: int
    gen_mats: dict[int, np.ndarray]
    name: str = "M"
    _elt_mats: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for g, m in self.gen_mats.items():
            self.gen_mats[g] = np.asarray(m, dtype=np.int64) % self.p
            if self.gen_mats[g].shape != (self.dim, self.dim):
                raise ValueError("generator matrix shape mismatch")

    def generator_matrices(self) -> list[np.ndarray]:
        return [self.gen_mats[g] for g in self.group.generators]

    def element_matrix(self, i: int) -> np.ndarray:
        """Matrix of the element, built by word evaluation along the Cayley graph."""
        if not self._elt_mats:
            self._build_elt_mats()
        return self._elt_mats[i]

    def _build_elt_mats(self):
        G = self.group
        mats = {G.identity: np.eye(self.dim, dtype=np.int64)}
        frontier = [G.identity]
        while frontier:
            new = []
            for g in G.generators:
                mg = self.gen_mats[g]
                for x in frontier:
                    y = G.mul(g, x)
                    if y not in mats:
                        mats[y] = (mg @ mats[x]) % self.p
                        new.append(y)
            frontier = new
        if len(mats) != len(G):
            raise ValueError("generators do not generate the group")
        self._elt_mats = mats

    def validate(self) -> bool:
        """Word evaluation must agree with the multiplication table."""
        G = self.group
        for g in G.generators:
            if rref(self.gen_mats[g], self.p)[1] != list(range(self.dim)):
                if self.dim:
                    return False
        for g in G.generators:
            mg = self.gen_mats[g]
            for x in range(len(G)):
                lhs = (mg @ self.element_matrix(x)) % self.p
                if not np.array_equal(lhs, self.element_matrix(G.mul(g, x))):
                    return False
        return True

    def restricted_to_subgroup(self, H: FiniteGroup, embed) -> "GroupModule":
        """Restriction along an injection embed: H-label -> G-label."""
        gens = {h: self.element_matrix(self.group.index[embed(H.labels[h])]) for h in H.generators}
        return GroupModule(H, self.p, self.dim, gens, name=f"{self.name}|{H.name}")


def regular_module(G: FiniteGroup, p: int) -> GroupModule:
    n = len(G)
    gens = {}
    for g in G.generators:
        m = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            m[G.mul(g, x), x] = 1
        gens[g] = m
    return GroupModule(G, p, n, gens, name=f"k[{G.name}]")


def trivial_module(G: FiniteGroup, p: int) -> GroupModule:
    return GroupModule(G, p, 1, {g: np.eye(1, dtype=np.int64) for g in G.generators}, name="triv")


def spin(ops: list[np.ndarray], vectors: np.ndarray, p: int, transpose: bool = False) -> np.ndarray:
    """RREF basis of the smallest subspace that contains the vectors and is
    invariant under ops (under their transposes with ``transpose``): the
    closure engine on one piece with one loop edge per operator."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
    edges = [(0, 0, m.T if transpose else m) for m in ops]
    return closure({0: vecs.shape[1]}, edges, {0: vecs}, p)[0]


def submodule(M: GroupModule, basis: np.ndarray, name: str | None = None) -> GroupModule:
    basis = np.asarray(basis, dtype=np.int64)
    gens = {g: restrict(m, basis, basis, M.p) for g, m in M.gen_mats.items()}
    return GroupModule(M.group, M.p, basis.shape[0], gens, name=name or f"sub({M.name})")


def quotient_module(M: GroupModule, basis: np.ndarray, name: str | None = None) -> GroupModule:
    from .gf import Subspace, proj_with_kernel

    sub = Subspace.from_vectors(basis, M.p, M.dim) if np.asarray(basis).size else Subspace.zero(M.dim, M.p)
    q, s = proj_with_kernel(sub)
    gens = {}
    for g, m in M.gen_mats.items():
        gens[g] = (q @ m @ s) % M.p
        if sub.dim and ((q @ m @ sub.basis_arr.T) % M.p).any():
            raise ValueError("basis is not invariant; quotient undefined")
    return GroupModule(M.group, M.p, M.dim - sub.dim, gens, name=name or f"quot({M.name})")


# ---------------------------------------------------------------------------
# irreducibility and chopping


def _local_min_poly(A: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (low degree first, monic) of the minimal polynomial of A at v."""
    d = A.shape[0]
    krylov = [v % p]
    while True:
        stacked = np.stack(krylov, axis=0)
        _, piv = rref(stacked, p)
        if len(piv) < len(krylov):
            break
        krylov.append((A @ krylov[-1]) % p)
    k = len(krylov) - 1
    rows = np.stack(krylov[:-1], axis=0)
    coeffs = solve(rows.T, krylov[-1], p)
    poly = np.zeros(k + 1, dtype=np.int64)
    poly[:k] = (-coeffs) % p
    poly[k] = 1
    return poly


def _poly_eval_matrix(coeffs: np.ndarray, A: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros_like(A)
    power = np.eye(A.shape[0], dtype=np.int64)
    for c in coeffs:
        if c:
            out = (out + int(c) * power) % p
        power = (power @ A) % p
    return out


def _pdivmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g != 0.  Polynomials over GF(p) are int
    lists here, low degree first, without trailing zeros."""
    r, inv = list(f), pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = c = r[i + len(g) - 1] * inv % p
        for j, b in enumerate(g):
            r[i + j] = (r[i + j] - c * b) % p
    r = r[: len(g) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd of f != 0 and g."""
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, m) of coprime squarefree g with f = prod g^m, for monic f."""
    df = np.trim_zeros([i * c % p for i, c in enumerate(f)][1:], "b")
    if not df:  # f(x) = g(x^p) = g(x)^p, or f is constant
        return [(g, m * p) for g, m in _squarefree(f[::p], p)] if len(f) > 1 else []
    c = _pgcd(f, df, p)
    w, out, m = _pdivmod(f, c, p)[0], [], 1
    while len(w) > 1:
        y = _pgcd(w, c, p)
        if len(y) < len(w):
            out.append((_pdivmod(w, y, p)[0], m))
        w, c, m = y, _pdivmod(c, y, p)[0], m + 1
    return out + [(g, k * p) for g, k in _squarefree(c[::p], p)]


def _berlekamp(g: list[int], p: int) -> list[list[int]]:
    """The irreducible factors of a monic squarefree g (Berlekamp 1967): the
    polynomials v with v^p = v mod g form a space with one dimension per
    factor, and gcd(h, v - s) over s in F_p splits every factor h on which
    v is not constant."""
    n = len(g) - 1
    mulx = np.eye(n, k=-1, dtype=np.int64)  # multiplication by x on F_p[x]/g
    mulx[:, -1] = -np.asarray(g[:-1])
    frob, cols = _poly_eval_matrix([0] * p + [1], mulx, p), [np.eye(n, dtype=np.int64)[0]]
    while len(cols) < n:  # x^(ip) mod g, the image of x^i under v -> v^p
        cols.append(frob @ cols[-1] % p)
    fixed = nullspace(np.stack(cols, axis=1) - np.eye(n, dtype=np.int64), p).tolist()
    factors = [g]
    for v, s in itertools.product([np.trim_zeros(v, "b") for v in fixed], range(p)):
        if len(factors) == len(fixed):
            break
        split = []
        for h in factors:
            d = _pgcd(h, [(v[0] - s) % p] + v[1:], p) if len(v) > 1 else h
            split += [d, _pdivmod(h, d, p)[0]] if 1 < len(d) < len(h) else [h]
        factors = split
    return factors


def _factor_poly(coeffs: np.ndarray, p: int) -> list[np.ndarray]:
    """The distinct monic irreducible factors over GF(p) of a monic
    polynomial, each as coefficients low degree first, sorted by degree,
    then multiplicity, then coefficients read from the top.  The order
    decides which kernel ``find_invariant_subspace`` spins first, and so the
    reports; the tests hold it to an independent factorizer."""
    facs = [(h, m) for g, m in _squarefree([int(c) % p for c in coeffs], p) for h in _berlekamp(g, p)]
    facs.sort(key=lambda hm: (len(hm[0]), hm[1], hm[0][::-1]))
    return [np.asarray(h, dtype=np.int64) for h, _ in facs]


def find_invariant_subspace(ops: list[np.ndarray], p: int, pool: list[np.ndarray], seed: int = 0):
    """Proper nonzero subspace invariant under ops (RREF rows), or None with
    certificate.

    Each try draws, from ``random.Random(seed)``, an algebra element theta
    (one to three scaled members of ``pool`` summed) and a start vector.
    The pool is required, nonempty and inside the algebra that ops generate.  For the first irreducible factor f of a local minimal
    polynomial of theta whose N = f(theta) has a nonzero kernel of at most
    SCAN_BUDGET vectors, every nonzero vector of ker N is spun under ops and
    every nonzero vector of ker N^T under their transposes.  A spin short of
    the whole space gives the subspace (on the dual side, its annihilator).
    When none is short, no proper invariant subspace exists (Holt-Rees), and
    the answer None is that certificate.
    """
    d = pool[0].shape[0]
    if d <= 1:
        return None
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        theta = np.zeros((d, d), dtype=np.int64)
        for _ in range(rng.randint(1, 3)):
            theta = (theta + rng.randrange(1, p) * rng.choice(pool)) % p
        v = np.array(rng.choices(range(p), k=d), dtype=np.int64)
        if not v.any():
            continue
        poly = _local_min_poly(theta, v, p)
        if len(poly) <= 1:
            continue
        for f in sorted(_factor_poly(poly, p), key=len):
            N = _poly_eval_matrix(f, theta, p)
            ker = nullspace(N, p)
            if ker.shape[0] == 0 or p ** ker.shape[0] > SCAN_BUDGET:
                continue
            for w in nonzero_combinations(ker, p):
                sp = spin(ops, w, p)
                if sp.shape[0] < d:
                    return sp
            for w in nonzero_combinations(nullspace(N.T % p, p), p):
                sp = spin(ops, w, p, transpose=True)
                if sp.shape[0] < d:
                    return nullspace(sp, p)
            return None
    raise SplittingFailure(f"no splitting decision after {MAX_TRIES} tries (seed {seed})")


def _split(M: GroupModule, seed: int):
    pool = [M.element_matrix(i) for i in range(len(M.group))]
    return find_invariant_subspace(M.generator_matrices(), M.p, pool, seed=seed)


def is_irreducible(M: GroupModule) -> bool:
    if M.dim == 0:
        return False
    return _split(M, 0) is None


def chop(M: GroupModule, seed: int = 0) -> list[GroupModule]:
    """Composition factors, in a deterministic order for a fixed seed."""
    if M.dim == 0:
        return []
    sub = _split(M, seed)
    if sub is None:
        return [M]
    return chop(submodule(M, sub), seed=seed + 1) + chop(quotient_module(M, sub), seed=seed + 2)


def module_hom(m1: GroupModule, m2: GroupModule) -> list[np.ndarray]:
    """Basis of Hom(m1, m2): the matrices X with X m1(g) = m2(g) X for every generator g."""
    if m1.group is not m2.group and m1.group.table.tolist() != m2.group.table.tolist():
        raise ValueError("modules over different groups")
    if m1.p != m2.p:
        raise ValueError("modules over different fields")
    blocks = ((0, 0, m1.gen_mats[g], m2.gen_mats[g]) for g in m1.group.generators)
    return [s[0] for s in intertwiner_space({0: (m2.dim, m1.dim)}, blocks, m1.p)]


def iso_modules(m1: GroupModule, m2: GroupModule) -> bool:
    """Exact isomorphism test: whether Hom(m1, m2) holds an invertible map.

    Raises ``BudgetExceeded`` when the intertwiner space is too large to
    settle within SCAN_BUDGET candidates (see ``gf.spans_invertible``).
    """
    if (m1.p, m1.dim) != (m2.p, m2.dim):
        return False
    homs = module_hom(m1, m2)
    return m1.dim == 0 or spans_invertible([[x] for x in homs], m1.p)


@dataclass
class SimplesReport:
    simples: list[GroupModule]
    multiplicities: list[int]
    group_order: int

    @property
    def accounting_ok(self) -> bool:
        return sum(s.dim * m for s, m in zip(self.simples, self.multiplicities)) == self.group_order


def p_regular_classes(G: FiniteGroup, p: int) -> list[tuple[int, int]]:
    """(least element index, element order) of each conjugacy class of G
    whose elements have order prime to p, by least element index."""
    T, seen, out = G.table, np.zeros(len(G), dtype=bool), []
    for g in range(len(G)):
        if seen[g]:
            continue
        seen[T[T[:, g], G.inverse]] = True  # the class x g x^-1 of g
        order, x = 1, g
        while x != G.identity:
            x, order = G.mul(x, g), order + 1
        if order % p:
            out.append((g, order))
    return out


def brauer_key(M: GroupModule, classes: list[tuple[int, int]]) -> tuple[int, ...]:
    """dim ker f(M(g)) for each class (g, m) of ``p_regular_classes`` and
    each irreducible factor f of x^m - 1, in ``_factor_poly`` order.

    M(g) is semisimple as p does not divide m, so the kernel of f(M(g)) is
    deg f times the multiplicity of each root of f as an eigenvalue of M(g)
    (the roots of one f share it, M(g) being defined over F_p).  The key so
    fixes the eigenvalues of M(g) on every p-regular class, which is the
    Brauer character of M, and non-isomorphic simple modules have distinct
    Brauer characters (Curtis-Reiner, Methods of Representation Theory I,
    17.11): their keys differ."""
    key = []
    for g, m in classes:
        A = M.element_matrix(g)
        for f in _factor_poly([-1] + [0] * (m - 1) + [1], M.p):
            key.append(M.dim - rank(_poly_eval_matrix(f, A, M.p), M.p))
    return tuple(key)


def _brauer_order(reps: list[GroupModule], G: FiniteGroup, p: int) -> list[int]:
    """Indices of reps by (dim, Brauer key), keys computed only where a
    dimension is shared; equal keys mean the splitting went wrong."""
    dims = [r.dim for r in reps]
    tied = [i for i, d in enumerate(dims) if dims.count(d) > 1]
    classes = p_regular_classes(G, p) if tied else []
    keys = {i: brauer_key(reps[i], classes) for i in tied}
    if len({(dims[i], keys[i]) for i in tied}) < len(tied):
        raise SplittingFailure("two simple modules share a Brauer character")
    return sorted(range(len(reps)), key=lambda i: (dims[i], keys.get(i, ())))


def simple_modules(G: FiniteGroup, p: int, seed: int = 0, budget: int = DEFAULT_GROUP_BUDGET) -> SimplesReport:
    """All simple F_p[G]-modules, from the composition factors of the regular
    module, with their multiplicities there.

    The seed drives the MeatAxe tries of ``chop``, drawn from
    ``random.Random``; it may change the bases of the simples but not the
    report.  Simples are ordered by dimension, then by ``brauer_key``, a
    total order on isomorphism classes that no draw can change."""
    if len(G) > budget:
        raise ValueError(f"group order {len(G)} exceeds budget {budget}")
    factors = chop(regular_module(G, p), seed=seed)
    reps: list[GroupModule] = []
    mults: list[int] = []
    for f in sorted(factors, key=lambda m: m.dim):
        for i, r in enumerate(reps):
            if r.dim == f.dim and iso_modules(r, f):
                mults[i] += 1
                break
        else:
            reps.append(f)
            mults.append(1)
    order = _brauer_order(reps, G, p)
    report = SimplesReport([reps[i] for i in order], [mults[i] for i in order], len(G))
    if not report.accounting_ok:
        raise SplittingFailure(f"composition accounting failed (seed {seed})")
    return report


# ---------------------------------------------------------------------------
# partitions and symmetrizers


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(a < b for a, b in zip(self.parts, self.parts[1:])) or any(x <= 0 for x in self.parts):
            raise ValueError("parts must be weakly decreasing and positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def is_p_regular(self, p: int) -> bool:
        return all(self.parts.count(x) < p for x in set(self.parts))

    def canonical_tableau(self) -> list[list[int]]:
        """Row-reading standard tableau: rows filled 0..n-1 left to right."""
        out, c = [], 0
        for length in self.parts:
            out.append(list(range(c, c + length)))
            c += length
        return out


def partitions(n: int) -> list[Partition]:
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(Partition(tuple(acc)))
            return
        for k in range(min(rest, maxpart), 0, -1):
            rec(rest - k, k, acc + [k])

    rec(n, n, [])
    return out


def p_regular_partitions(n: int, p: int) -> list[Partition]:
    return [lam for lam in partitions(n) if lam.is_p_regular(p)]


# -- the group algebra of Sym(n), elements as dicts perm -> coefficient ------


def algebra_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for sg, ca in a.items():
        for tu, cb in b.items():
            key = compose_perm(sg, tu)
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {k: v for k, v in out.items() if v}


def row_symmetrizer(tableau: list[list[int]], n: int, p: int) -> dict:
    out = {}
    for combo in itertools.product(*[itertools.permutations(row) for row in tableau]):
        perm = list(range(n))
        for row, img in zip(tableau, combo):
            for a, b in zip(row, img):
                perm[a] = b
        key = tuple(perm)
        out[key] = (out.get(key, 0) + 1) % p
    return {k: v for k, v in out.items() if v}


def column_symmetrizer(tableau: list[list[int]], n: int, p: int) -> dict:
    cols = []
    width = max((len(r) for r in tableau), default=0)
    for j in range(width):
        cols.append([row[j] for row in tableau if len(row) > j])
    out = {}
    for combo in itertools.product(*[itertools.permutations(c) for c in cols]):
        perm = list(range(n))
        for col, img in zip(cols, combo):
            for a, b in zip(col, img):
                perm[a] = b
        key = tuple(perm)
        out[key] = (out.get(key, 0) + perm_sign(key)) % p
    return {k: v for k, v in out.items() if v}


def epsilon_lambda(lam: Partition, n: int, p: int, variant: str = "crc") -> dict:
    """Symmetrizer product attached to a p-regular partition.

    The 'crc' variant (signed-column * row * signed-column on the canonical
    tableau) yields a nonzero generator of the simple right ideal for every
    p-regular partition at desk scale; 'rcr' is the plain transcription of
    the row-first product and vanishes already for the one-row partition
    when p <= n, so it is kept only for comparison.
    """
    if lam.n != n:
        raise ValueError("partition size mismatch")
    if not lam.is_p_regular(p):
        raise ValueError(f"{lam} is not {p}-regular")
    T = lam.canonical_tableau()
    R = row_symmetrizer(T, n, p)
    C = column_symmetrizer(T, n, p)
    if variant == "crc":
        return algebra_mul(algebra_mul(C, R, p), C, p)
    if variant == "rcr":
        return algebra_mul(algebra_mul(R, C, p), R, p)
    raise ValueError(f"unknown variant {variant!r}")


def right_ideal_module(elt: dict, n: int, p: int, name: str = "ideal") -> GroupModule:
    """The right ideal elt * F_p[Sym(n)] as a left module (g . m := m g^{-1}).

    Raises if the ideal is zero.
    """
    G = FiniteGroup.symmetric(n)
    dim_a = len(G)
    vec = np.zeros(dim_a, dtype=np.int64)
    for perm, c in elt.items():
        vec[G.index[perm]] = c % p
    if not vec.any():
        raise ValueError("zero algebra element: construction mismatch")
    # right multiplication matrices on the group algebra
    def rmul_matrix(perm_idx: int) -> np.ndarray:
        m = np.zeros((dim_a, dim_a), dtype=np.int64)
        for x in range(dim_a):
            m[G.mul(x, perm_idx), x] = 1
        return m

    rows = [vec]
    for g in range(dim_a):
        rows.append(rmul_matrix(g) @ vec % p)
    basis, piv = rref(np.stack(rows), p)
    basis = basis[: len(piv)]
    gens = {g: restrict(rmul_matrix(int(G.inverse[g])), basis, basis, p) for g in G.generators}
    return GroupModule(G, p, basis.shape[0], gens, name=name)


def epsilon_lambda_module(lam: Partition, n: int, p: int) -> GroupModule:
    """The simple module attached to lam, verified nonzero and irreducible."""
    elt = epsilon_lambda(lam, n, p)
    M = right_ideal_module(elt, n, p, name=f"D{lam.parts}")
    if not is_irreducible(M):
        raise ValueError(f"ideal for {lam} is reducible: construction mismatch")
    return M


# ---------------------------------------------------------------------------
# tensor-power functors on plain vector spaces


def tensor_index_tuples(d: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(d), repeat=n))


def right_perm_matrix(d: int, n: int, perm: tuple) -> np.ndarray:
    """Right action of perm on (F^d)^{tensor n}: e_J -> e_{J o perm}."""
    idx = tensor_index_tuples(d, n)
    pos = {J: i for i, J in enumerate(idx)}
    m = np.zeros((len(idx), len(idx)), dtype=np.int64)
    for i, J in enumerate(idx):
        K = tuple(J[perm[t]] for t in range(n))
        m[pos[K], i] = 1
    return m


def right_algebra_matrix(elt: dict, d: int, n: int, p: int) -> np.ndarray:
    size = d**n
    out = np.zeros((size, size), dtype=np.int64)
    for perm, c in elt.items():
        out = (out + c * right_perm_matrix(d, n, perm)) % p
    return out


class TensorSymmetrizerImage:
    """The image of the right action of an algebra element on tensor powers.

    A functor on plain vector spaces: dims and induced maps are computed from
    image bases, which are stable under gamma^{tensor n} because the left
    gamma-action commutes with the right permutation action.
    """

    def __init__(self, elt: dict, n: int, p: int, name: str = "image"):
        self.elt = elt
        self.n = n
        self.p = p
        self.name = name
        self._basis: dict[int, np.ndarray] = {}

    def basis(self, d: int) -> np.ndarray:
        if d not in self._basis:
            m = right_algebra_matrix(self.elt, d, self.n, self.p)
            b, piv = rref(m.T, self.p)
            self._basis[d] = b[: len(piv)]
        return self._basis[d]

    def dim(self, d: int) -> int:
        return self.basis(d).shape[0]

    def mat(self, gamma: np.ndarray) -> np.ndarray:
        return restrict([gamma] * self.n, self.basis(gamma.shape[1]), self.basis(gamma.shape[0]), self.p)
