"""Classification harness: quotient equivalence instances and simple functors."""

from collections import Counter

import numpy as np
import pytest

from functorlab import elcat as ec
from functorlab import modrep as mr
from functorlab import sfunctor as sf
from functorlab import simples as sp
from functorlab import vfunctor as vf


@pytest.fixture(scope="module")
def skhom():
    return ec.Skeleton(sf.RepresentableFunctor(2, 1, 4))


@pytest.fixture(scope="module")
def plain():
    return ec.Skeleton(sf.RepresentableFunctor(2, 0, 4))


@pytest.fixture(scope="module")
def hom_simples(skhom):
    return sp.enumerate_simples(skhom, 2, seed=0)


@pytest.fixture(scope="module")
def plain_simples(plain):
    return sp.enumerate_simples(plain, 3, seed=0)


def test_verify_quotient_equivalence_tensor_instance(skhom):
    G = vf.aut_sigma_group(skhom, 1, 2)
    M = vf.sigma_functor_from_module(skhom, 1, 2, mr.regular_module(G, 2))
    TM = vf.tensor_sigma_n(skhom, M, 2, window=3)
    rep = sp.verify_quotient_equivalence(TM, 2)
    assert rep["ok"]
    assert rep["kernel_total_dim"] == 0 and rep["cokernel_total_dim"] == 0


def test_verify_quotient_equivalence_lower_degree_sample(skhom):
    C = vf.constant_functor(skhom, window=3)
    rep = sp.verify_quotient_equivalence(C, 2)
    # the two-fold difference vanishes, so the counit is zero and the whole
    # functor is its own cokernel, which must drop degree
    assert rep["ok"] and rep["cokernel_total_dim"] == C.total_dim()


def test_verify_quotient_equivalence_noise_sample(skhom):
    F = vf.direct_sum(
        vf.forgetful_lift(skhom, vf.TensorPower(2, 2), window=3),
        vf.forgetful_lift(skhom, vf.TensorPower(1, 2), window=3),
    )
    rep = sp.verify_quotient_equivalence(F, 2)
    assert rep["ok"]


def test_verify_quotient_equivalence_samples_n1(skhom):
    for F in (
        vf.forgetful_lift(skhom, vf.TensorPower(1, 2), window=3),
        vf.constant_functor(skhom, window=3),
    ):
        assert sp.verify_quotient_equivalence(F, 1)["ok"]


def test_enumerate_simples_hom_f2_count(hom_simples):
    assert len(hom_simples) == 6
    per = Counter((d.rector_class, d.n) for d in hom_simples)
    assert all(v == 1 for v in per.values())
    assert set(per) == {(r, n) for r in (0, 1) for n in (0, 1, 2)}


def test_enumerate_simples_all_certified(hom_simples):
    for d in hom_simples:
        ok, _ = sp.certify_simple(d.realization)
        assert ok
        supp, _ = sp.support_check(d.realization)
        assert supp == d.rector_class


def test_enumerate_simples_degree_exact(hom_simples):
    for d in hom_simples:
        deg, _ = vf.polynomial_degree(d.realization, max_degree=d.n)
        assert deg == d.n


def test_enumerate_simples_roundtrip(hom_simples, skhom):
    for d in hom_simples:
        G = vf.aut_sigma_group(skhom, d.rector_class, d.n)
        back = sp.delta_n_module(d.realization, d.n, d.rector_class, G)
        assert mr.iso_modules(back, d.module)


def test_constant_base_matches_partition_counts(plain_simples):
    per = Counter(d.n for d in plain_simples)
    for n in range(4):
        assert per[n] == len(mr.p_regular_partitions(n, 2))


def test_constant_base_classical_dims(plain_simples):
    dims = {
        (d.n, tuple(d.multiplicity[0])): [x[2] for x in d.value_dims()]
        for d in plain_simples
    }
    assert dims[(0, ())] == [1, 1, 1, 1, 1]
    assert dims[(1, (1,))] == [0, 1, 2, 3, 4]
    assert dims[(2, (2,))] == [0, 0, 1, 3, 6]  # exterior square
    assert dims[(3, (3,))] == [0, 0, 0, 1, 4]  # exterior cube
    # the remaining degree-3 simple matches the symmetrizer-image functor
    img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(mr.Partition((2, 1)), 3, 2), 3, 2)
    assert dims[(3, (2, 1))] == [img.dim(v) for v in range(5)]


def test_simples_multiplicity_data(hom_simples):
    for d in hom_simples:
        assert d.multiplicity is not None
        parts, copies = d.multiplicity
        assert copies == 1 and sum(parts) == d.n


def test_certify_simple_rejects_presimple(skhom):
    # before quotienting, the balanced tensor of the trivial module is not
    # simple: the symmetric coinvariants contain a lower-degree subfunctor
    n = 2
    G = vf.aut_sigma_group(skhom, 0, n)
    M = vf.sigma_functor_from_module(skhom, 0, n, mr.trivial_module(G, 2))
    TM = vf.tensor_sigma_n(skhom, M, n)
    assert [TM.dim(skhom.index[(0, v)]) for v in range(5)] == [0, 1, 3, 6, 10]
    lower = vf.p_n(TM, n - 1, known_degree_bound=n)
    assert [lower.bases[skhom.index[(0, v)]].shape[0] for v in range(5)] == [0, 1, 2, 3, 4]
    ok, witness = sp.certify_simple(TM)
    assert not ok
    # the witness is inside the lower filtration
    if isinstance(witness, tuple):
        i, x, gen = witness
        assert lower.contains(gen)


def test_certify_simple_direct_sum_fails(hom_simples):
    d = hom_simples[0]
    F2 = vf.direct_sum(d.realization, d.realization)
    ok, witness = sp.certify_simple(F2)
    assert not ok


def test_support_check_direct_sum_across_classes(hom_simples):
    a = next(d for d in hom_simples if d.rector_class == 0 and d.n == 0)
    b = next(d for d in hom_simples if d.rector_class == 1 and d.n == 0)
    F = vf.direct_sum(a.realization, b.realization)
    supp, witness = sp.support_check(F)
    assert supp is None and witness is not None
    assert witness.is_stable()
    assert 0 < witness.total_dim() < F.total_dim()


def test_support_check_injective_cogen_multiclass(skhom):
    I = vf.injective_cogen(skhom, skhom.index[(1, 1)], window=2)
    supp, witness = sp.support_check(I)
    assert supp is None and witness is not None


def test_algebra_route_matches_exhaustive(hom_simples):
    for d in hom_simples:
        ok_scan, _ = sp.certify_simple(d.realization, scan_budget=1 << 12)
        ok_alg, _ = sp.certify_simple(d.realization, scan_budget=0)
        assert ok_scan == ok_alg == True  # noqa: E712
    # sums whose largest value space has 2, 2^11 and 2^12 vectors: the default
    # scans all three, and on the last two the algebra route spins kernels of
    # 11 and 12 dimensions
    d0, d1, d2 = (d.realization for d in hom_simples[:3])
    for F in (vf.direct_sum(d0, d0), vf.direct_sum(vf.direct_sum(d2, d1), d0), vf.direct_sum(d2, d2)):
        ok_scan, witness = sp.certify_simple(F)
        assert not ok_scan and isinstance(witness, tuple)
        for seed in range(3):
            ok_alg, sub = sp.certify_simple(F, scan_budget=0, seed=seed)
            assert not ok_alg and sub.is_stable()
            assert 0 < sub.total_dim() < F.total_dim()


def test_seed_independence_iso_matching(skhom):
    a = sp.enumerate_simples(skhom, 1, seed=0)
    b = sp.enumerate_simples(skhom, 1, seed=777)
    assert len(a) == len(b)
    for x in a:
        hits = [
            y
            for y in b
            if y.rector_class == x.rector_class and y.n == x.n and mr.iso_modules(x.module, y.module)
        ]
        assert len(hits) == 1


def test_simples_report_shape(hom_simples, skhom):
    rep = sp.simples_report(hom_simples, skhom)
    assert rep["count"] == 6
    assert all("value_dims" in row and "window" in row for row in rep["simples"])


def test_classification_with_nontrivial_automorphisms():
    # orbits under the full invertible group: the top class has a six-element
    # automorphism group, so each degree contributes its two simple modules
    from functorlab.gf import LinearMap

    gens = [LinearMap.from_array([[0, 1], [1, 0]], 2), LinearMap.from_array([[1, 1], [0, 1]], 2)]
    O = sf.OrbitFunctor(2, 2, gens, 4)
    sk = ec.Skeleton(O)
    assert [len(a) for a in sk.rector.aut_groups] == [1, 1, 6]
    descs = sp.enumerate_simples(sk, 1, seed=0)
    assert len(descs) == 8
    top = [d for d in descs if d.rector_class == 2]
    assert sorted(d.module.dim for d in top) == [1, 1, 2, 2]
    # the two-dimensional simples restrict to two copies of the one-dim module
    for d in top:
        parts, copies = d.multiplicity
        assert copies == d.module.dim


def test_adjunction_check_degree_zero(skhom):
    G = vf.aut_sigma_group(skhom, 1, 0)
    M = vf.sigma_functor_from_module(skhom, 1, 0, mr.trivial_module(G, 2))
    F = vf.injective_cogen(skhom, skhom.index[(1, 0)], window=3)
    rep = vf.adjunction_check(M, F, 0)
    assert rep["dims_equal"] and rep["triangle_tensor"] and rep["triangle_difference"]


def test_p3_classification_with_automorphism_pairing():
    # scalar orbits at p = 3: the class automorphism group is the two
    # nonzero scalars, so each degree carries two one-dimensional simples
    # that agree in every value dimension yet are not isomorphic
    from functorlab.gf import LinearMap

    O = sf.OrbitFunctor(3, 1, [LinearMap.from_array([[2]], 3)], 3)
    sk = ec.Skeleton(O)
    assert [len(a) for a in sk.rector.aut_groups] == [1, 2]
    descs = sp.enumerate_simples(sk, 1, seed=0)  # pairwise check runs inside
    assert len(descs) == 6
    by_class1 = [d for d in descs if d.rector_class == 1 and d.n == 0]
    assert len(by_class1) == 2
    assert by_class1[0].realization.dims_list() == by_class1[1].realization.dims_list()
    assert not sp.functor_iso(by_class1[0].realization, by_class1[1].realization)
    assert not mr.iso_modules(by_class1[0].module, by_class1[1].module)


def test_isotypic_data_three_trivial_copies():
    # (Sym(3) permutation module) x (trivial) restricts to three copies of
    # the trivial Sym(2)-module
    G = mr.FiniteGroup.product(mr.FiniteGroup.symmetric(3), mr.FiniteGroup.symmetric(2))
    gens = {g: np.eye(3, dtype=np.int64)[:, list(G.labels[g][0])] for g in G.generators}
    M = mr.GroupModule(G, 2, 3, gens)
    assert M.validate()
    assert sp.isotypic_data(M, 2, 2) == ((2,), 3)


def test_functor_iso_triple_sum(hom_simples):
    F = hom_simples[0].realization
    F3 = vf.direct_sum(vf.direct_sum(F, F), F)
    assert sp.functor_iso(F3, F3)
