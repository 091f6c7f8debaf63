"""Classification of simple functors on a window.

Simple functors are enumerated per (regular class, degree, simple module of
the automorphism-times-symmetric group): the balanced tensor of the module is
formed, its greatest lower-degree subfunctor is quotiented away, and the
result is certified simple on the window, checked to be supported on a single
class, and differenced back to recover the module.

Simplicity is certified by idempotent condensation at one object o: F is
simple iff F(o) is a simple F_p[End(o)]-module, F(o) generates F, and no
nonzero subfunctor vanishes at o; then a nonzero subfunctor N meets F(o),
contains it, and so is F.  The last two conditions are closures over the
generating morphisms; the first spins F(o) under monoid generators of
End(o), exhaustively for small F(o) and otherwise through the package's one
splitting engine, ``modrep.find_invariant_subspace``.  Isomorphism of functors, like that of modules, is decided
exactly from the space of natural transformations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vfunctor
from .gf import SCAN_BUDGET, BudgetExceeded, WindowExceeded, nonzero_combinations, nullspace, rref, spans_invertible
from .elcat import Skeleton
from .modrep import (
    FiniteGroup,
    GroupModule,
    epsilon_lambda_module,
    find_invariant_subspace,
    iso_modules,
    module_hom,
    p_regular_partitions,
    simple_modules,
    spin,
)
from .vfunctor import (
    SubFunctor,
    VecFunctor,
    _closure,
    delta_bar_power,
    delta_n_sigma,
    differenced_counit,
    generated_subfunctor,
    nat_space,
    p_n,
    polynomial_degree,
    quotient_functor,
    restrict_nat_to_cross,
    sigma_functor_from_module,
    tensor_sigma_n,
    aut_sigma_group,
)


@dataclass
class SimpleDescriptor:
    rector_class: int
    n: int
    module: GroupModule
    realization: VecFunctor
    window: int
    multiplicity: tuple | None  # (partition parts, i) when the restriction is isotypic

    def value_dims(self) -> list[tuple[int, int, int]]:
        return self.realization.dims_list()


# ---------------------------------------------------------------------------
# the degree-n comparison at instance level


def verify_quotient_equivalence(F: VecFunctor, n: int, counit_f: tuple | None = None) -> dict:
    """Check the quotient-category equivalence on one functor: the counit of
    the degree-n adjunction must become an isomorphism after n differences,
    and its kernel and cokernel must drop degree.  counit_f is
    vfunctor.differenced_counit(F, n), built here when not given."""
    deg, degwin = polynomial_degree(F, max_degree=n)
    if deg is None:
        raise WindowExceeded(f"sample not certified of degree <= {n} on the window")
    eta, _, D_F, D_TM = differenced_counit(F, n) if counit_f is None else counit_f
    iso_at_classes = True
    for r in D_F.classes():
        mat = restrict_nat_to_cross(eta, n, r, D_TM.cross_effects[r], D_F.cross_effects[r])
        if mat.shape[0] != mat.shape[1] or len(rref(mat, F.p)[1]) != mat.shape[0]:
            iso_at_classes = False
    ker = eta.kernel_subfunctor()
    img = eta.image_subfunctor()
    ker_deg_ok = delta_bar_power(ker.to_functor(), n).is_zero() if n <= ker.to_functor().window else None
    coker = quotient_functor(F, img)
    coker_deg_ok = delta_bar_power(coker, n).is_zero() if n <= coker.window else None
    return {
        "degree": deg,
        "differenced_counit_iso": iso_at_classes,
        "kernel_in_lower_degree": bool(ker_deg_ok),
        "cokernel_in_lower_degree": bool(coker_deg_ok),
        "kernel_total_dim": ker.total_dim(),
        "cokernel_total_dim": coker.total_dim(),
        "window": F.window,
        "ok": bool(iso_at_classes and ker_deg_ok and coker_deg_ok),
    }


# ---------------------------------------------------------------------------
# simplicity certificates


def certify_simple(F: VecFunctor, seed: int = 0):
    """Whether F is simple on the window: (True, None), or (False, witness)
    with a proper nonzero stable ``SubFunctor`` ("zero functor" for F = 0).

    At the object o with the smallest (dim F(o), dim o) among F(o) != 0, F is
    simple iff (a) F(o) is a simple F_p[End(o)]-module, (b) F(o) generates F
    and (c) no nonzero subfunctor vanishes at o (Green, LNM 830, 6.2; Kuhn,
    Amer. J. Math. 116).  Each is necessary; conversely a nonzero subfunctor N
    has N(o) != 0 by (c), so N(o) = F(o) by (a) and N = F by (b).  A failure
    of (a) gives the subfunctor generated by a proper submodule, whose value
    at o is that submodule.
    """
    if F.is_zero():
        return False, "zero functor"
    objs = F.sk.objects
    o = min((i for i in F.object_indices() if F.dim(i)), key=lambda i: (F.dim(i), objs[i].dim))
    whole = np.eye(F.dim(o), dtype=np.int64)
    gen = _closure(F, {o: whole})  # (b)
    if any(b.shape[0] < F.dim(i) for i, b in gen.items()):
        return False, SubFunctor(F, gen)
    ann = _closure(F, {o: whole}, dual=True)  # (c): its kernels vanish at o and hold all that do
    if any(a.shape[0] < F.dim(i) for i, a in ann.items()):
        return False, SubFunctor(F, {i: nullspace(a, F.p) for i, a in ann.items()})
    sub = _end_submodule(F, o, seed)  # (a)
    if sub is None:
        return True, None
    return False, generated_subfunctor(F, o, sub)


def _end_generators(sk: Skeleton, o: int) -> list:
    """Monoid generators of End(o): its generating morphisms (the class
    automorphisms, the gf.gl_generators of GL_v on the trivial block and the
    row-0 shears) and, when o has a trivial coordinate, the idempotent
    zeroing the last one.  They suffice as [[f,0],[g,h]] = diag(f,1)
    shear(g) diag(1,h), every shear is a word in the row-0 shears and GL_v
    (Skeleton.generating_morphisms), and M_v(F_p) is generated by GL_v and
    one idempotent of rank v-1 (Howie)."""
    a = sk.objects[o]
    gens = [g for (i, j, g) in sk.generating_morphisms() if i == j == o]
    if a.vdim:
        gens.append(sk.incl_one(a.rclass, a.vdim - 1) @ sk.proj_one(a.rclass, a.vdim - 1))
    return gens


def _end_submodule(F: VecFunctor, o: int, seed: int):
    """A proper nonzero End(o)-submodule of F(o), or None if F(o) is simple.
    Up to SCAN_BUDGET vectors every nonzero vector is spun; beyond it the
    basis vectors (settling an End(o) too small for the splitting engine's
    kernels), then the engine, drawing from the generators and their products."""
    d, p = F.dim(o), F.p
    eye = np.eye(d, dtype=np.int64)
    ops = [F.mat(o, o, g) for g in _end_generators(F.sk, o)] or [eye]  # End(o) = {1}
    scan = p**d <= SCAN_BUDGET
    for x in nonzero_combinations(eye, p) if scan else eye:
        sub = spin(ops, x, p)
        if sub.shape[0] < d:
            return sub
    if scan:
        return None
    pool = ops + [(a @ b) % p for a in ops for b in ops]
    return find_invariant_subspace(ops, p, pool, seed=seed)


def support_check(F: VecFunctor):
    """Single-class support test.  Returns (class index, None) on success and
    (None, splitting subfunctor) when the support meets several classes."""
    sk = F.sk
    supported = sorted(
        {sk.objects[i].rclass for i in F.object_indices() if F.dim(i) > 0}
    )
    if not supported:
        return None, None
    if len(supported) == 1:
        return supported[0], None
    # a class maximal for "receives a regular-class map from" gives a stable piece
    maximal = [
        r
        for r in supported
        if not any(r2 != r and len(sk.rector_hom(r, r2)) for r2 in supported)
    ]
    r = maximal[0]
    bases = {}
    for i in F.object_indices():
        if sk.objects[i].rclass == r:
            bases[i] = np.eye(F.dim(i), dtype=np.int64)
        else:
            bases[i] = np.zeros((0, F.dim(i)), dtype=np.int64)
    witness = SubFunctor(F, bases)
    if not witness.is_stable():
        raise RuntimeError("support splitting produced an unstable family")
    return None, witness


# ---------------------------------------------------------------------------
# the enumeration


def delta_n_module(F: VecFunctor, n: int, rclass: int, group: FiniteGroup) -> GroupModule:
    """The n-fold difference of F at one class, packaged as a module over
    Aut(class) x Sym(n)."""
    D = delta_n_sigma(F, n)
    sk = F.sk
    dim = D.dim(rclass)
    d = sk.rector.classes[rclass].dim
    gens = {}
    for gidx in group.generators:
        entries, perm = group.labels[gidx]
        autmap = np.array(entries, dtype=np.int64).reshape(d, d)
        gens[gidx] = (D.rmap(rclass, rclass, autmap) @ D.perm_action(rclass, perm)) % F.p
    return GroupModule(group, F.p, dim, gens, name=f"D^{n}{F.name}@{rclass}")


def sigma_restriction_module(M: GroupModule, n: int) -> GroupModule:
    """Restrict a module over Aut x Sym(n) to the symmetric factor."""
    aut_identity = M.group.labels[M.group.identity][0]
    return M.restricted_to_subgroup(FiniteGroup.symmetric(n), lambda perm: (aut_identity, perm))


def isotypic_data(M: GroupModule, n: int, p: int) -> tuple | None:
    """(partition parts, i) when M restricted to Sym(n) is i copies of one
    simple symmetric-group module; None otherwise.

    For a simple D, dim Hom(D, rest) = i dim End(D) says the socle of rest
    holds i copies of D, which is all of rest exactly when dim rest = i dim D.
    """
    rest = sigma_restriction_module(M, n)
    for lam in p_regular_partitions(n, p):
        D = epsilon_lambda_module(lam, n, p)
        i, r = divmod(rest.dim, D.dim)
        if not r and len(module_hom(D, rest)) == i * len(module_hom(D, D)):
            return (lam.parts, i)
    return None


def functor_iso(F: VecFunctor, G: VecFunctor) -> bool:
    """Exact natural isomorphism test: matching dims plus an invertible
    element of the transformation space.  Raises ``BudgetExceeded`` when that
    space is too large to settle (see ``gf.spans_invertible``)."""
    if F.dims_list() != G.dims_list():
        return False
    basis = nat_space(F, G)
    if not basis:
        return F.is_zero() and G.is_zero()
    return spans_invertible([list(t.mats.values()) for t in basis], F.p)


def fits_window(sk: Skeleton, rclass: int, n: int) -> bool:
    """Whether the window can certify degree n at the class: a degree-n
    certificate needs n + 1 trivial coordinates beside the representative."""
    return sk.rector.classes[rclass].dim + n + 1 <= sk.window


def simple_tasks(sk: Skeleton, n_max: int) -> list[tuple[int, int]]:
    """The (class, degree) pairs enumerate_simples runs, in its order."""
    return [(r, n) for r in range(len(sk.rector.classes)) for n in range(n_max + 1) if fits_window(sk, r, n)]


def _simples_for_class_degree(sk: Skeleton, rclass: int, n: int, seed: int, group_budget: int) -> list[SimpleDescriptor]:
    p = sk.p
    rep_dim = sk.rector.classes[rclass].dim
    if not fits_window(sk, rclass, n):
        raise WindowExceeded(
            f"window {sk.window} cannot certify degree {n} at a class of dim {rep_dim}"
        )
    group = aut_sigma_group(sk, rclass, n)
    if len(group) > group_budget:
        raise ValueError(f"group order {len(group)} exceeds budget {group_budget}")
    # one seed stream per (class, degree); the report's order does not depend on it
    job_seed = seed * 1000003 + rclass * 101 + n
    report = simple_modules(group, p, seed=job_seed)
    out = []
    for mod in report.simples:
        M = sigma_functor_from_module(sk, rclass, n, mod)
        TM = tensor_sigma_n(sk, M, n)
        deg, _ = polynomial_degree(TM, max_degree=n)
        if deg is None or deg > n:
            raise RuntimeError("balanced tensor exceeded its degree bound")
        if n == 0:
            quot = TM
        else:
            lower = p_n(TM, n - 1, known_degree_bound=n)
            quot = quotient_functor(TM, lower, name=f"S[{rclass},{n},{mod.name}]")
        ok, witness = certify_simple(quot, seed=job_seed)
        if not ok:
            raise RuntimeError(f"classification output failed simplicity: {witness}")
        supp, _ = support_check(quot)
        if supp != rclass:
            raise RuntimeError("classification output supported off its class")
        back = delta_n_module(quot, n, rclass, group)
        if not iso_modules(back, mod):
            raise RuntimeError("difference round trip lost the module")
        out.append(SimpleDescriptor(rclass, n, mod, quot, sk.window, isotypic_data(mod, n, p)))
    return out


def enumerate_simples(sk: Skeleton, n_max: int, seed: int = 0, group_budget: int = 1000) -> list[SimpleDescriptor]:
    """One simple functor per (regular class, degree <= n_max, simple module).

    Each output is the balanced tensor of its module with the greatest
    lower-degree subfunctor quotiented away, certified simple on the window,
    supported on its class, and differencing back to the source module,
    in (class, degree) order and within a task in ``simple_modules``' order
    (dimension, then Brauer key), so the seed does not change the order; no
    two outputs are isomorphic.

    Every task builds a balanced tensor of a module of dimension >= 1 at v =
    window - dim(class), so BudgetExceeded is raised before the first task
    when (n - 1) (v^n)^2 relation cells exceed vfunctor.MAX_RELATION_CELLS.
    """
    tasks = simple_tasks(sk, n_max)
    for r, n in tasks:
        cells = (n - 1) * ((sk.window - sk.rector.classes[r].dim) ** n) ** 2
        if cells > vfunctor.MAX_RELATION_CELLS:
            raise BudgetExceeded("relation matrix cells", cells, vfunctor.MAX_RELATION_CELLS)
    out = [d for r, n in tasks for d in _simples_for_class_degree(sk, r, n, seed, group_budget)]
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            if functor_iso(out[a].realization, out[b].realization):
                raise RuntimeError(f"outputs {a} and {b} are isomorphic")
    return out


def skipped_tasks(sk: Skeleton, n_max: int) -> list[dict]:
    """(class, degree) pairs the window cannot certify; they are omitted from
    enumeration and the report says so."""
    out = []
    for rclass, rep in enumerate(sk.rector.classes):
        for n in range(n_max + 1):
            if not fits_window(sk, rclass, n):
                out.append({"class_index": rclass, "n": n, "needed_window": rep.dim + n + 1})
    return out


def simples_report(descriptors: list[SimpleDescriptor], sk: Skeleton, n_max: int | None = None) -> dict:
    rows = []
    for d in descriptors:
        rows.append(
            {
                "class_dim": sk.rector.classes[d.rector_class].dim,
                "class_index": d.rector_class,
                "aut_order": len(sk.rector.aut_groups[d.rector_class]),
                "n": d.n,
                "module_dim": d.module.dim,
                "multiplicity": (
                    {"partition": list(d.multiplicity[0]), "copies": d.multiplicity[1]}
                    if d.multiplicity
                    else None
                ),
                "value_dims": [
                    {"class": r, "trivial_dim": v, "dim": dim}
                    for (r, v, dim) in d.value_dims()
                ],
                "window": d.window,
            }
        )
    doc = {"count": len(rows), "simples": rows}
    if n_max is not None:
        doc["skipped_for_window"] = skipped_tasks(sk, n_max)
        doc["complete_for_n_max"] = not doc["skipped_for_window"]
    return doc
