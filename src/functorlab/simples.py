"""Classification of simple functors on a window.

Simple functors are enumerated per (regular class, degree, simple module of
the automorphism-times-symmetric group): the balanced tensor of the module is
formed, its greatest lower-degree subfunctor is quotiented away, and the
result is certified simple on the window, checked to be supported on a single
class, and differenced back to recover the module.

Simplicity certification is exhaustive (every nonzero value vector must
generate everything) when the value spaces are small enough to scan, and
otherwise runs the package's one splitting engine,
``modrep.find_invariant_subspace``, on the direct sum of the value spaces,
with object projections adjoined so invariant subspaces are exactly
morphism-stable families.  Isomorphism of functors, like that of modules, is
decided exactly from the space of natural transformations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import SCAN_BUDGET, nonzero_combinations, rref, spans_invertible
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
)
from .vfunctor import (
    SubFunctor,
    VecFunctor,
    WindowExceeded,
    counit,
    delta_bar_power,
    delta_n_sigma,
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


def verify_quotient_equivalence(F: VecFunctor, n: int) -> dict:
    """Check the quotient-category equivalence on one functor: the counit of
    the degree-n adjunction must become an isomorphism after n differences,
    and its kernel and cokernel must drop degree."""
    deg, degwin = polynomial_degree(F, max_degree=n)
    if deg is None:
        raise WindowExceeded(f"sample not certified of degree <= {n} on the window")
    eta, TM, M = counit(F, n)
    D_TM = delta_n_sigma(TM, n)
    D_F = M  # counit already differenced F
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


def certify_simple(F: VecFunctor, scan_budget: int = SCAN_BUDGET, seed: int = 0):
    """True iff every nonzero value vector generates the whole functor on the
    window.  Value spaces of at most scan_budget vectors (by default
    SCAN_BUDGET) are scanned exhaustively; otherwise the splitting engine
    decides.  Returns (bool, witness)."""
    if F.is_zero():
        return False, "zero functor"
    max_dim = max(F.dim(i) for i in F.object_indices())
    if F.p**max_dim <= scan_budget:
        for i in F.object_indices():
            for x in nonzero_combinations(np.eye(F.dim(i), dtype=np.int64), F.p):
                gen = generated_subfunctor(F, i, x)
                if gen.total_dim() != F.total_dim():
                    return False, (i, x, gen)
        return True, None
    ops, offs = _module_ops(F)
    sub = find_invariant_subspace(ops, F.p, seed=seed)
    if sub is None:
        return True, None
    return False, _graded_pieces(F, offs, sub)


def _module_ops(F: VecFunctor):
    """Generator matrices of the category algebra acting on the summed values."""
    idxs = F.object_indices()
    offs, total = {}, 0
    for i in idxs:
        offs[i] = total
        total += F.dim(i)
    ops = []
    for i in idxs:  # object projections keep invariant subspaces graded
        m = np.zeros((total, total), dtype=np.int64)
        m[offs[i]: offs[i] + F.dim(i), offs[i]: offs[i] + F.dim(i)] = np.eye(F.dim(i), dtype=np.int64)
        ops.append(m)
    for (i, j, g) in F.sk.generating_morphisms():
        if F.sk.objects[i].dim > F.window or F.sk.objects[j].dim > F.window:
            continue
        m = np.zeros((total, total), dtype=np.int64)
        m[offs[j]: offs[j] + F.dim(j), offs[i]: offs[i] + F.dim(i)] = F.mat(i, j, g)
        ops.append(m)
    ops.append(np.eye(total, dtype=np.int64))
    return ops, offs


def _graded_pieces(F: VecFunctor, offs: dict, basis: np.ndarray) -> SubFunctor:
    bases = {}
    for i in F.object_indices():
        block = basis[:, offs[i]: offs[i] + F.dim(i)]
        r, piv = rref(block, F.p)
        bases[i] = r[: len(piv)]
    return SubFunctor(F, bases)


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
        if not any(r2 != r and sk.rector_hom(r, r2) for r2 in supported)
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
    gens = {}
    for gidx in group.generators:
        autmap, perm = group.labels[gidx]
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


def _simples_for_class_degree(sk: Skeleton, rclass: int, n: int, seed: int, group_budget: int) -> list[SimpleDescriptor]:
    p = sk.p
    rep_dim = sk.rector.classes[rclass].dim
    if rep_dim + n + 1 > sk.window:
        raise WindowExceeded(
            f"window {sk.window} cannot certify degree {n} at a class of dim {rep_dim}"
        )
    group = aut_sigma_group(sk, rclass, n)
    if len(group) > group_budget:
        raise ValueError(f"group order {len(group)} exceeds budget {group_budget}")
    # seed streams are derived per job so parallel runs stay reproducible
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


def enumerate_simples(
    sk: Skeleton,
    n_max: int,
    seed: int = 0,
    group_budget: int = 1000,
    check_pairwise: bool = True,
    jobs: int = 1,
) -> list[SimpleDescriptor]:
    """One simple functor per (regular class, degree <= n_max, simple module).

    Each output is the balanced tensor of its module with the greatest
    lower-degree subfunctor quotiented away, certified simple on the window,
    supported on its class, and differencing back to the source module.
    Results are merged in (class, degree) order whatever the worker count.
    """
    tasks = [
        (rclass, n)
        for rclass, rep in enumerate(sk.rector.classes)
        for n in range(n_max + 1)
        if rep.dim + n + 1 <= sk.window
    ]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(
                pool.map(lambda t: _simples_for_class_degree(sk, t[0], t[1], seed, group_budget), tasks)
            )
    else:
        chunks = [_simples_for_class_degree(sk, r, n, seed, group_budget) for r, n in tasks]
    out = [d for chunk in chunks for d in chunk]
    if check_pairwise:
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
            if rep.dim + n + 1 > sk.window:
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
