"""Difference calculus, cross effects, polynomial filtration, adjunction."""

import numpy as np
import pytest

from functorlab.gf import LinearMap
from functorlab import elcat as ec
from functorlab import modrep as mr
from functorlab import sfunctor as sf
from functorlab import vfunctor as vf


@pytest.fixture(scope="module")
def plain():
    """Constant set functor: the element category is plain vector spaces."""
    return ec.Skeleton(sf.RepresentableFunctor(2, 0, 4))


@pytest.fixture(scope="module")
def skhom():
    """S = Hom(-, F_2): two regular classes."""
    return ec.Skeleton(sf.RepresentableFunctor(2, 1, 4))


def tensor_lift(sk, n, window=None):
    return vf.forgetful_lift(sk, vf.TensorPower(n, 2), window)


# -- constructors -------------------------------------------------------------


def test_forgetful_lift_dims(plain):
    T1 = tensor_lift(plain, 1)
    assert [d for (_, _, d) in T1.dims_list()] == [0, 1, 2, 3, 4]
    assert T1.validate(pair_budget=5000)


def test_injective_cogen_dims_match_hom_counts(skhom):
    tgt = skhom.index[(1, 1)]
    I = vf.injective_cogen(skhom, tgt, window=2)
    for o in skhom.objects:
        if o.dim <= 2:
            assert I.dim(o.index) == len(skhom.hom(o.index, tgt))


def test_injective_cogen_terminal_object(plain, skhom):
    # over the constant functor the base point is terminal: one map from anywhere
    I = vf.injective_cogen(plain, plain.index[(0, 0)], window=3)
    assert all(d == 1 for (_, _, d) in I.dims_list())
    # with a nontrivial base the support is the trivial-class objects only
    J = vf.injective_cogen(skhom, skhom.index[(0, 0)], window=3)
    for o in skhom.objects:
        if o.dim <= 3:
            assert J.dim(o.index) == (1 if o.rclass == 0 else 0)


def test_injective_cogen_factorization(skhom):
    # dim I[(r,v)](a) = |regular hom| * p^{dim a * v}
    tgt = skhom.index[(1, 2)]
    I = vf.injective_cogen(skhom, tgt, window=2)
    for o in skhom.objects:
        if o.dim > 2:
            continue
        nreg = len(skhom.rector_hom(o.rclass, 1))
        assert I.dim(o.index) == nreg * 2 ** (o.dim * 2)


def test_projective_gen_covariant(skhom):
    P = vf.projective_gen(skhom, skhom.index[(1, 0)], window=2)
    assert P.validate(pair_budget=5000)


# -- difference functor --------------------------------------------------------


def test_delta_constant_is_zero(plain):
    C = vf.constant_functor(plain)
    assert vf.delta_bar(C).is_zero()


def test_delta_t1_is_constant_line(plain):
    d = vf.delta_bar(tensor_lift(plain, 1))
    assert all(dim == 1 for (_, _, dim) in d.dims_list())
    assert vf.delta_bar(d).is_zero()


def test_delta_dimension_rank_nullity(plain):
    T2 = tensor_lift(plain, 2)
    d = vf.delta_bar(T2)
    sk = plain
    for o in sk.objects:
        if o.dim > d.window:
            continue
        up = sk.index[(o.rclass, o.vdim + 1)]
        proj = sk.proj_one(o.rclass, o.vdim)
        m = T2.mat(up, o.index, proj)
        assert d.dim(o.index) == T2.dim(up) - len(vf.rref(m, 2)[1])


def test_degrees_of_tensor_powers(plain):
    for n in range(4):
        F = tensor_lift(plain, n) if n else vf.constant_functor(plain)
        deg, window = vf.polynomial_degree(F)
        assert deg == n
        assert window == 4 - n - 1


def test_degree_of_injective_at_regular_class(skhom):
    I = vf.injective_cogen(skhom, skhom.index[(1, 0)], window=3)
    deg, _ = vf.polynomial_degree(I, max_degree=2)
    assert deg == 0


def test_window_exhaustion_returns_none(plain):
    T3 = tensor_lift(plain, 3, window=2)
    deg, _ = vf.polynomial_degree(T3)
    assert deg is None


# -- cross effects --------------------------------------------------------------


def test_cross_effect_n1_equals_delta(plain):
    T2 = tensor_lift(plain, 2)
    d = vf.delta_bar(T2)
    for o in plain.objects:
        if o.dim <= d.window:
            assert vf.cross_effect(T2, o.index, (1,)).dim == d.dim(o.index)


def test_cross_effect_t2_mixed_tensors(plain):
    cr = vf.cross_effect(tensor_lift(plain, 2), plain.index[(0, 0)], (1, 1))
    assert cr.dim == 2


def test_delta_equals_cross_at_all_objects(plain, skhom):
    for sk, n in [(plain, 2), (plain, 3), (skhom, 2)]:
        F = tensor_lift(sk, n)
        dk = vf.delta_bar_power(F, n)
        for o in sk.objects:
            if o.dim <= dk.window:
                assert dk.dim(o.index) == vf.cross_effect(F, o.index, (1,) * n).dim


def test_cross_effect_additivity(plain, skhom):
    # splitting one slot X + Y doubles into the two families
    for sk in (plain, skhom):
        F = tensor_lift(sk, 2)
        base = sk.index[(0, 0)]
        whole = vf.cross_effect(F, base, (2, 1))
        part = vf.cross_effect(F, base, (1, 1))
        assert whole.dim == 2 * part.dim


def test_cross_effect_additivity_fully_split(plain):
    F = tensor_lift(plain, 2)
    base = plain.index[(0, 0)]
    whole = vf.cross_effect(F, base, (2, 2))
    part = vf.cross_effect(F, base, (1, 1))
    assert whole.dim == 4 * part.dim


def test_shears_act_as_identity_on_cross_effects(skhom):
    # the key identity-action statement behind the adjunction
    F = tensor_lift(skhom, 2, window=3)
    base = skhom.index[(1, 0)]
    cr = vf.cross_effect(F, base, (1, 1))
    o = skhom.objects[cr.plus_index]
    for shear in skhom.shears(o.rclass, o.vdim):
        big = F.mat(cr.plus_index, cr.plus_index, shear)
        from functorlab.gf import restrict

        restricted = restrict(big, cr.basis, cr.basis, 2)
        assert np.array_equal(restricted, np.eye(cr.dim, dtype=np.int64))


def test_shears_on_tensor_sigma_cross_effects(skhom):
    n = 2
    G = vf.aut_sigma_group(skhom, 1, n)
    M = vf.sigma_functor_from_module(skhom, 1, n, mr.regular_module(G, 2))
    TM = vf.tensor_sigma_n(skhom, M, n, window=3)
    cr = vf.cross_effect(TM, skhom.index[(1, 0)], (1, 1))
    o = skhom.objects[cr.plus_index]
    from functorlab.gf import restrict

    for shear in skhom.shears(o.rclass, o.vdim):
        big = TM.mat(cr.plus_index, cr.plus_index, shear)
        assert np.array_equal(restrict(big, cr.basis, cr.basis, 2), np.eye(cr.dim, dtype=np.int64))


# -- exactness -------------------------------------------------------------------


def test_delta_exact_on_seeded_ses(plain, skhom):
    count = 0
    for sk, n in [(plain, 2), (skhom, 2), (plain, 3)]:
        F = tensor_lift(sk, n, window=3)
        for seed in range(8):
            rng = np.random.default_rng(1000 + seed)
            sub = vf.random_subfunctor(F, rng)
            if not sub.is_stable():
                continue
            assert vf.ses_delta_exactness(F, sub)
            count += 1
    assert count >= 20


# -- greatest polynomial subfunctors ----------------------------------------------


def test_p0_of_identity_lift_vanishes(plain):
    T1 = tensor_lift(plain, 1)
    assert vf.p_n(T1, 0, known_degree_bound=1).total_dim() == 0


def test_p_n_full_for_polynomial(plain):
    T2 = tensor_lift(plain, 2)
    assert vf.p_n(T2, 2, known_degree_bound=2).total_dim() == T2.total_dim()


def test_p_n_fast_path_matches_general(skhom):
    T1 = tensor_lift(skhom, 1, window=3)
    fast = vf.p_n(T1, 0, known_degree_bound=1)
    slow = vf.p_n(T1, 0)
    assert {i: b.shape[0] for i, b in fast.bases.items()} == {
        i: b.shape[0] for i, b in slow.bases.items()
    }


def test_p_n_of_direct_sum_picks_low_degree_part(plain):
    T1 = tensor_lift(plain, 1, window=3)
    T2 = tensor_lift(plain, 2, window=3)
    F = vf.direct_sum(T2, T1)
    p1 = vf.p_n(F, 1, known_degree_bound=2)
    # the degree-1 part is exactly the T1 summand
    for i in F.object_indices():
        assert p1.bases[i].shape[0] == T1.dim(i)


def test_generated_subfunctor_matches_full_hom_span(skhom):
    F = tensor_lift(skhom, 2, window=2)
    start = skhom.index[(0, 2)]
    x = np.asarray([1, 0, 0, 1])
    gen = vf.generated_subfunctor(F, start, x)
    # oracle: spans of images under complete hom-sets
    for o in skhom.objects:
        if o.dim > 2:
            continue
        vecs = [np.zeros(F.dim(o.index), dtype=np.int64)]
        for gamma in skhom.hom(start, o.index):
            vecs.append((F.mat(start, o.index, gamma) @ x) % 2)
        from functorlab.gf import rref

        r, piv = rref(np.stack(vecs), 2)
        assert len(piv) == gen.bases[o.index].shape[0]


# -- restriction / extension -------------------------------------------------------


def test_E_O_roundtrip_values_and_diagonals(skhom):
    F = tensor_lift(skhom, 2, window=3)
    EO = vf.E_transform(vf.O_transform(F))
    assert EO.dims_list() == F.dims_list()
    # on block-diagonal morphisms the two agree
    for o in skhom.objects:
        if o.dim > 3:
            continue
        for o2 in skhom.objects:
            if o2.dim > 3 or o2.vdim != o.vdim:
                continue
            for f in skhom.rector_hom(o.rclass, o2.rclass):
                g = skhom._diag(o, f, LinearMap.identity(o.vdim, 2))
                assert np.array_equal(EO.mat(o.index, o2.index, g), F.mat(o.index, o2.index, g))


def test_O_of_constant_is_constant(skhom):
    C = vf.constant_functor(skhom)
    OC = vf.O_transform(C)
    for i in OC.object_indices():
        assert OC.dim(i) == 1


def test_bar_roundtrip_for_degree_zero(skhom):
    targets = [skhom.index[(1, 0)], skhom.index[(0, 0)]]
    fns = [vf.injective_cogen(skhom, t, window=3) for t in targets]
    fns.append(vf.constant_functor(skhom, window=3))
    fns.append(vf.direct_sum(fns[0], fns[2]))
    fns.append(vf.direct_sum(fns[1], fns[1]))
    assert len(fns) >= 5
    for F in fns:
        rt = vf.bar_roundtrip_iso(F)
        assert rt.is_natural()
        for m in rt.mats.values():
            assert m.shape[0] == m.shape[1]
            assert len(vf.rref(m, 2)[1]) == m.shape[0]


def test_extendable_discriminates(skhom):
    T1 = tensor_lift(skhom, 1, window=3)
    lam = {i: np.eye(T1.dim(i), dtype=np.int64) for i in T1.object_indices()}
    ok, witness, _ = vf.extendable(vf.O_transform(T1), T1, lam)
    assert not ok and witness is not None
    C = vf.constant_functor(skhom)
    lamc = {i: np.eye(1, dtype=np.int64) for i in C.object_indices()}
    ok2, _, ext = vf.extendable(vf.O_transform(C), C, lamc)
    assert ok2 and ext.is_natural()


# -- balanced tensors ---------------------------------------------------------------


def test_tensor_sigma_free_module_dims(skhom):
    # the free module cancels the coinvariants: dims are v^n times the rank
    n = 2
    G = vf.aut_sigma_group(skhom, 1, n)  # trivial aut: rank one over Sym(2)
    M = vf.sigma_functor_from_module(skhom, 1, n, mr.regular_module(G, 2))
    TM = vf.tensor_sigma_n(skhom, M, n)
    for o in skhom.objects:
        expect = o.vdim**n if o.rclass == 1 else 0
        assert TM.dim(o.index) == expect


def test_tensor_sigma_n0_is_extension(skhom):
    G = vf.aut_sigma_group(skhom, 1, 0)
    M = vf.sigma_functor_from_module(skhom, 1, 0, mr.trivial_module(G, 2))
    TM = vf.tensor_sigma_n(skhom, M, 0)
    deg, _ = vf.polynomial_degree(TM, max_degree=1)
    assert deg == 0
    for o in skhom.objects:
        assert TM.dim(o.index) == (1 if o.rclass == 1 else 0)


def test_tensor_sigma_degree_bound(skhom):
    n = 2
    G = vf.aut_sigma_group(skhom, 1, n)
    for mod in (mr.trivial_module(G, 2), mr.regular_module(G, 2)):
        M = vf.sigma_functor_from_module(skhom, 1, n, mod)
        TM = vf.tensor_sigma_n(skhom, M, n)
        deg, _ = vf.polynomial_degree(TM, max_degree=n + 1)
        assert deg is not None and deg <= n


def test_module_recovery_iso_equivariant(plain, skhom):
    # the n-fold difference of the balanced tensor recovers the module,
    # compatibly with the symmetric action and the class maps
    for sk, rclass in [(plain, 0), (skhom, 1)]:
        for n in (1, 2, 3):
            if sk.rector.classes[rclass].dim + n > sk.window:
                continue
            G = vf.aut_sigma_group(sk, rclass, n)
            sims = mr.simple_modules(G, 2).simples
            mods = [mr.trivial_module(G, 2), mr.regular_module(G, 2)] + sims
            for mod in mods:
                M = vf.sigma_functor_from_module(sk, rclass, n, mod)
                TM = vf.tensor_sigma_n(sk, M, n)
                D = vf.delta_n_sigma(TM, n)
                assert D.dims == {r: M.dim(r) for r in range(len(sk.rector.classes))}
                u = vf.unit_map(M, TM, D, rclass)
                assert len(vf.rref(u, 2)[1]) == u.shape[0] == u.shape[1]
                for t in range(n - 1):
                    lhs = (u @ M.sigma_gen(rclass, t)) % 2
                    rhs = (D.sigma_gen(rclass, t) @ u) % 2
                    assert np.array_equal(lhs, rhs)
                for f in sk.rector.aut_groups[rclass]:
                    lhs = (u @ M.rmap(rclass, rclass, f)) % 2
                    rhs = (D.rmap(rclass, rclass, f) @ u) % 2
                    assert np.array_equal(lhs, rhs)


def test_adjunction_dimensions_and_triangles(skhom):
    pairs = 0
    for n in (1, 2):
        F = tensor_lift(skhom, n, window=3)
        F2 = vf.direct_sum(F, vf.constant_functor(skhom, window=3))
        for rclass in (0, 1):
            G = vf.aut_sigma_group(skhom, rclass, n)
            sims = mr.simple_modules(G, 2).simples
            for mod in [mr.trivial_module(G, 2), mr.regular_module(G, 2)] + sims:
                M = vf.sigma_functor_from_module(sk := skhom, rclass, n, mod)
                for target in (F, F2):
                    rep = vf.adjunction_check(M, target, n)
                    assert rep["dims_equal"], rep
                    assert rep["triangle_tensor"] and rep["triangle_difference"]
                    pairs += 1
    assert pairs >= 10


def test_adjunction_degenerate_case(skhom):
    # target of lower degree: both transformation spaces vanish
    n = 2
    C = vf.constant_functor(skhom, window=3)
    G = vf.aut_sigma_group(skhom, 1, n)
    M = vf.sigma_functor_from_module(skhom, 1, n, mr.regular_module(G, 2))
    rep = vf.adjunction_check(M, C, n)
    assert rep["dims_equal"] and rep["hom_dim_tensor_side"] == 0


def test_counit_iso_for_tensor_target(plain):
    T2 = tensor_lift(plain, 2)
    eta, TM, M = vf.counit(T2, 2)
    assert eta.is_natural()
    assert eta.kernel_subfunctor().total_dim() == 0
    assert eta.image_subfunctor().total_dim() == T2.total_dim()


def test_nat_space_verified_against_full_homs(skhom):
    A = tensor_lift(skhom, 1, window=2)
    B = tensor_lift(skhom, 1, window=2)
    basis = vf.nat_space(A, B)
    for t in basis:
        assert t.is_natural(generators_only=False, budget=100_000)


def test_sigma_functor_validation(skhom):
    n = 2
    G = vf.aut_sigma_group(skhom, 1, n)
    M = vf.sigma_functor_from_module(skhom, 1, n, mr.regular_module(G, 2))
    assert M.validate()


def test_serre_property_on_generated_instances(skhom):
    # outer terms of a short exact sequence polynomial of degree <= n force
    # the middle inside too; exercised through generated subfunctor sequences
    n = 2
    F = vf.direct_sum(
        tensor_lift(skhom, 2, window=3), tensor_lift(skhom, 1, window=3)
    )
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(6):
        sub = vf.random_subfunctor(F, rng)
        Fsub = sub.to_functor()
        Fq = vf.quotient_functor(F, sub)
        dsub, _ = vf.polynomial_degree(Fsub, max_degree=n)
        dq, _ = vf.polynomial_degree(Fq, max_degree=n)
        if dsub is not None and dq is not None:
            dmid, _ = vf.polynomial_degree(F, max_degree=n)
            assert dmid is not None and dmid <= n
            checked += 1
    assert checked >= 3


def test_symmetrizer_tensor_properties(plain):
    # the symmetrizer-image functors: no lower-degree subfunctor, and their
    # n-fold difference has the dimension of the simple ideal
    for parts, n in [((1,), 1), ((2,), 2), ((3,), 3), ((2, 1), 3)]:
        lam = mr.Partition(parts)
        img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(lam, n, 2), n, 2)
        F = vf.forgetful_lift(plain, img)
        deg, _ = vf.polynomial_degree(F, max_degree=n)
        assert deg == n or (deg is None and n == 3)  # n=3 needs the full window
        if n < plain.window:
            lower = vf.p_n(F, n - 1, known_degree_bound=n)
            assert lower.total_dim() == 0
        dk = vf.delta_bar_power(F, n)
        ideal_dim = mr.epsilon_lambda_module(lam, n, 2).dim
        assert dk.dim(plain.index[(0, 0)]) == ideal_dim


def test_tensor_power_lift_matches_direct_tensor(plain):
    # the identity-functor lift at degree one: values are the spaces themselves
    T1 = tensor_lift(plain, 1)
    for o in plain.objects:
        assert T1.dim(o.index) == o.dim


def test_p3_pipeline_spot_check():
    # nothing in the calculus is tied to characteristic two
    S = sf.RepresentableFunctor(3, 1, 2)
    assert sf.validate(S).ok
    assert sf.check_weak_noetherian(S).ok
    sk = ec.Skeleton(S)
    assert [c.dim for c in sk.rector.classes] == [0, 1]
    T1 = vf.forgetful_lift(sk, vf.TensorPower(1, 3))
    d = vf.delta_bar(T1)
    assert all(d.dim(i) == 1 for i in d.object_indices())
    cr = vf.cross_effect(vf.forgetful_lift(sk, vf.TensorPower(2, 3)), sk.index[(0, 0)], (1, 1))
    assert cr.dim == 2
    assert np.array_equal(cr.sigma_matrix((1, 0)), np.asarray([[0, 1], [1, 0]]))


def test_extendable_counit_blocks(skhom):
    # a transformation produced at product level from the difference module
    # of a polynomial functor satisfies the shear condition and extends
    F = tensor_lift(skhom, 2, window=3)
    eta, TM, M = vf.counit(F, 2)
    ok, witness, ext = vf.extendable(vf.O_transform(TM), F, eta.mats)
    assert ok and ext.is_natural()


def test_query_routing_off_the_skeleton(skhom):
    # routed values and maps at arbitrary pairs stay functorial
    S = skhom.S
    F = tensor_lift(skhom, 2, window=3)
    from functorlab import elcat as ec2

    done = 0
    for d in range(3):
        for s in S.elements(d):
            o = ec2.ElObject(d, s.index)
            idx, w = skhom.rep_of(o)
            assert F.value_dim_at(o) == F.dim(idx)
            for d2 in range(3):
                for s2 in S.elements(d2):
                    o2 = ec2.ElObject(d2, s2.index)
                    mors = ec2.hom_set(S, o, o2)
                    for mor in mors[:2]:
                        m = F.map_at(o, o2, mor.map)
                        assert m.shape == (F.value_dim_at(o2), F.value_dim_at(o))
                        done += 1
    assert done > 10


def test_query_routing_respects_composition(skhom):
    from functorlab import elcat as ec2

    S = skhom.S
    F = tensor_lift(skhom, 2, window=3)
    # two composable non-skeletal morphisms: routed matrices must compose
    a = ec2.ElObject(2, S._index[2][LinearMap.from_array([[1, 1]], 2).data])
    b = ec2.ElObject(1, S._index[1][LinearMap.from_array([[1]], 2).data])
    for m1 in ec2.hom_set(S, a, b):
        for m2 in ec2.hom_set(S, b, a):
            comp = m2.map @ m1.map
            lhs = (F.map_at(b, a, m2.map) @ F.map_at(a, b, m1.map)) % 2
            assert np.array_equal(lhs, F.map_at(a, a, comp))


def test_function_space_lift(plain):
    # the standard injective of plain functors, lifted; not polynomial on any
    # finite window, and the difference dims follow rank-nullity
    I1 = vf.forgetful_lift(plain, vf.FunctionSpace(1, 2), window=3)
    assert [I1.dim(plain.index[(0, v)]) for v in range(4)] == [1, 2, 4, 8]
    assert I1.validate(pair_budget=3000)
    deg, _ = vf.polynomial_degree(I1)
    assert deg is None
    # restriction of functions along an injection of hom-sets is onto
    d = vf.delta_bar(I1)
    assert [d.dim(plain.index[(0, v)]) for v in range(3)] == [1, 2, 4]


def test_functor_json_roundtrip_p11():
    # entries of 10 and above need the separator-joined map keys
    sk = ec.Skeleton(sf.RepresentableFunctor(11, 0, 2))
    F = vf.forgetful_lift(sk, vf.TensorPower(2, 11), window=1)
    doc = vf.functor_to_json(F)
    G = vf.functor_from_json(sk, doc)
    assert vf.functor_to_json(G) == doc
    i = sk.index[(0, 1)]
    g = LinearMap.from_array([[10]], 11)
    assert np.array_equal(G.mat(i, i, g), F.mat(i, i, g))
