"""Acceptance criteria, one test each, with a pass/fail line per criterion.

Everything here is exact (GF(p) arithmetic); p = 2 is primary with p = 3
spot checks in the representation engine, caps stay at 4 or below.
"""

import json
from collections import Counter

import numpy as np
import pytest

from functorlab import cli, elcat as ec, modrep as mr, sfunctor as sf, simples as sp, vfunctor as vf
from functorlab.gf import kernel_space, rref


def line(num: int, ok: bool, msg: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok


@pytest.fixture(scope="module")
def SU2():
    return sf.RepresentableFunctor(2, 2, 3)


@pytest.fixture(scope="module")
def sk_su2(SU2):
    return ec.Skeleton(SU2)


@pytest.fixture(scope="module")
def sk_hom():
    return ec.Skeleton(sf.RepresentableFunctor(2, 1, 4))


@pytest.fixture(scope="module")
def sk_plain():
    return ec.Skeleton(sf.RepresentableFunctor(2, 0, 4))


def test_criterion_01_kernel_correctness(SU2):
    checked = 0
    for d in range(SU2.cap + 1):
        for s in SU2.elements(d):
            assert sf.kernel_of(SU2, s) == kernel_space(SU2.element_map(s), 2)
            checked += 1
    line(1, checked == 85, f"functorial kernels equal matrix kernels for all {checked} elements, maximality never ambiguous")


def test_criterion_02_weak_noetherianity(SU2):
    cert = sf.check_weak_noetherian(SU2)
    crafted = sf.kernel_mismatch_example()
    assert sf.validate(crafted).ok
    counter = sf.check_weak_noetherian(crafted)
    ok = cert.ok and not counter.ok and counter.witness is not None
    alpha, s, lhs, rhs = counter.witness
    ok = ok and lhs != rhs
    line(2, ok, f"certificate at cap 3 ({cert.checked} pairs); crafted table fails with witness alpha={alpha.tolist()}, s={tuple(s)}")


def test_criterion_03_block_form(SU2, sk_su2):
    pairs = 0
    for a in sk_su2.objects:
        for b in sk_su2.objects:
            assert ec.verify_block_form(SU2, sk_su2, a.index, b.index)
            assert ec.hom_factorization_holds(SU2, sk_su2, a.index, b.index)
            pairs += 1
    line(3, pairs == 225, f"hom-sets equal the block-triangular sets and the cardinality factorization holds on {pairs} pairs")


def test_criterion_04_rector_skeleton(SU2, sk_su2):
    R = sk_su2.rector
    ok = len(R.classes) == 5
    ok = ok and sorted(c.dim for c in R.classes) == [0, 1, 1, 1, 2]
    ok = ok and all(len(a) == 1 for a in R.aut_groups)
    inj, _ = ec.check_injectivity(SU2, R)
    ok = ok and inj
    line(4, ok, "exactly 5 classes (dims 0,1,1,1,2), trivial automorphisms, all regular morphisms injective")


def test_criterion_05_difference_calculus(sk_plain, sk_hom):
    ok = vf.delta_bar(vf.constant_functor(sk_plain)).is_zero()
    for n in range(4):
        F = vf.forgetful_lift(sk_plain, vf.TensorPower(n, 2)) if n else vf.constant_functor(sk_plain)
        deg, _ = vf.polynomial_degree(F)
        ok = ok and deg == n
    # iterated differences equal cross effects at every checkable object
    for sk, n in [(sk_plain, 2), (sk_plain, 3), (sk_hom, 2)]:
        F = vf.forgetful_lift(sk, vf.TensorPower(n, 2))
        dk = vf.delta_bar_power(F, n)
        for i in dk.object_indices():
            ok = ok and dk.dim(i) == vf.cross_effect(F, i, (1,) * n).dim
    # additivity for polynomial functors, degrees 1 and 2
    for sk in (sk_plain, sk_hom):
        F1 = vf.forgetful_lift(sk, vf.TensorPower(1, 2))
        ok = ok and vf.cross_effect(F1, sk.index[(0, 0)], (2,)).dim == 2 * vf.cross_effect(F1, sk.index[(0, 0)], (1,)).dim
        F2 = vf.forgetful_lift(sk, vf.TensorPower(2, 2))
        ok = ok and vf.cross_effect(F2, sk.index[(0, 0)], (2, 1)).dim == 2 * vf.cross_effect(F2, sk.index[(0, 0)], (1, 1)).dim
    ok = ok and vf.cross_effect(vf.forgetful_lift(sk_plain, vf.TensorPower(2, 2)), sk_plain.index[(0, 0)], (2, 2)).dim == 4 * vf.cross_effect(vf.forgetful_lift(sk_plain, vf.TensorPower(2, 2)), sk_plain.index[(0, 0)], (1, 1)).dim
    line(5, ok, "difference of constants vanishes; tensor powers have exact degree n <= 3; iterated differences = cross effects; additivity")


def test_criterion_06_exactness(sk_plain, sk_hom):
    count = 0
    for sk, n in [(sk_plain, 2), (sk_hom, 2), (sk_plain, 3)]:
        F = vf.forgetful_lift(sk, vf.TensorPower(n, 2), window=3)
        for seed in range(8):
            sub = vf.random_subfunctor(F, np.random.default_rng(4242 + seed))
            assert sub.is_stable()
            assert vf.ses_delta_exactness(F, sub)
            count += 1
    line(6, count >= 20, f"difference of {count} seeded short exact sequences stays exact with additive dimensions")


def test_criterion_07_shears_identity(sk_hom):
    from functorlab.gf import restrict

    n = 2
    G = vf.aut_sigma_group(sk_hom, 1, n)
    M = vf.sigma_functor_from_module(sk_hom, 1, n, mr.regular_module(G, 2))
    fns = [
        vf.forgetful_lift(sk_hom, vf.TensorPower(2, 2), window=3),
        vf.tensor_sigma_n(sk_hom, M, n, window=3),
    ]
    checked = 0
    for F in fns:
        for rclass, rep in enumerate(sk_hom.rector.classes):
            if rep.dim + n > 3:
                continue
            cr = vf.cross_effect(F, sk_hom.index[(rclass, 0)], (1, 1))
            o = F.sk.objects[cr.plus_index]
            for shear in sk_hom.shears(o.rclass, o.vdim):
                m = restrict(F.mat(cr.plus_index, cr.plus_index, shear), cr.basis, cr.basis, 2)
                assert np.array_equal(m, np.eye(cr.dim, dtype=np.int64))
                checked += 1
    line(7, checked > 0, f"{checked} shear actions restrict to the identity on second cross effects")


def test_criterion_08_degree_zero_roundtrip(sk_hom):
    fns = [
        vf.injective_cogen(sk_hom, sk_hom.index[(0, 0)], window=3),
        vf.injective_cogen(sk_hom, sk_hom.index[(1, 0)], window=3),
        vf.constant_functor(sk_hom, window=3),
    ]
    fns.append(vf.direct_sum(fns[1], fns[2]))
    fns.append(vf.direct_sum(fns[0], fns[1]))
    count = 0
    for F in fns:
        rt = vf.bar_roundtrip_iso(F)
        assert rt.is_natural()
        for m in rt.mats.values():
            assert m.shape[0] == m.shape[1] and len(rref(m, 2)[1]) == m.shape[0]
        count += 1
    line(8, count >= 5, f"restriction/extension round trip is a natural isomorphism on {count} degree-0 functors")


def test_criterion_09_module_recovery_and_adjunction(sk_hom):
    # explicit equivariant recovery of the module from the differenced tensor
    recovered = 0
    for rclass in (0, 1):
        for n in (1, 2, 3):
            if sk_hom.rector.classes[rclass].dim + n > sk_hom.window:
                continue
            G = vf.aut_sigma_group(sk_hom, rclass, n)
            mods = [mr.trivial_module(G, 2), mr.regular_module(G, 2)] + mr.simple_modules(G, 2).simples
            for mod in mods:
                M = vf.sigma_functor_from_module(sk_hom, rclass, n, mod)
                TM = vf.tensor_sigma_n(sk_hom, M, n)
                D = vf.delta_n_sigma(TM, n)
                u = vf.unit_map(M, TM, D, rclass)
                assert u.shape[0] == u.shape[1] and len(rref(u, 2)[1]) == u.shape[0]
                for t in range(n - 1):
                    assert np.array_equal((u @ M.sigma_gen(rclass, t)) % 2, (D.sigma_gen(rclass, t) @ u) % 2)
                for f in sk_hom.rector.aut_groups[rclass]:
                    assert np.array_equal((u @ M.rmap(rclass, rclass, f)) % 2, (D.rmap(rclass, rclass, f) @ u) % 2)
                recovered += 1
    # transformation-space dimension equality plus triangles
    pairs = 0
    for n in (1, 2):
        targets = [
            vf.forgetful_lift(sk_hom, vf.TensorPower(n, 2), window=3),
            vf.direct_sum(vf.forgetful_lift(sk_hom, vf.TensorPower(n, 2), window=3), vf.constant_functor(sk_hom, window=3)),
        ]
        for rclass in (0, 1):
            G = vf.aut_sigma_group(sk_hom, rclass, n)
            for mod in [mr.trivial_module(G, 2), mr.regular_module(G, 2)] + mr.simple_modules(G, 2).simples:
                M = vf.sigma_functor_from_module(sk_hom, rclass, n, mod)
                for F in targets:
                    rep = vf.adjunction_check(M, F, n)
                    assert rep["dims_equal"] and rep["triangle_tensor"] and rep["triangle_difference"]
                    pairs += 1
    line(9, recovered >= 8 and pairs >= 10, f"module recovered equivariantly {recovered} times; adjunction dims+triangles on {pairs} pairs")


def test_criterion_10_quotient_equivalence(sk_hom):
    samples = 0
    for n in (1, 2):
        G = vf.aut_sigma_group(sk_hom, 1, n)
        M = vf.sigma_functor_from_module(sk_hom, 1, n, mr.regular_module(G, 2))
        fns = [
            vf.tensor_sigma_n(sk_hom, M, n, window=3),
            vf.forgetful_lift(sk_hom, vf.TensorPower(n, 2), window=3),
            vf.constant_functor(sk_hom, window=3),
        ]
        if n == 2:
            fns.append(
                vf.direct_sum(
                    vf.forgetful_lift(sk_hom, vf.TensorPower(2, 2), window=3),
                    vf.forgetful_lift(sk_hom, vf.TensorPower(1, 2), window=3),
                )
            )
        for F in fns:
            rep = sp.verify_quotient_equivalence(F, n)
            assert rep["ok"], rep
            samples += 1
    line(10, samples >= 7, f"differenced counit iso and kernel/cokernel degree drop on {samples} samples, n <= 2")


def test_criterion_11_representation_engine():
    r2 = mr.simple_modules(mr.FiniteGroup.symmetric(2), 2)
    ok = [m.dim for m in r2.simples] == [1]
    r3 = mr.simple_modules(mr.FiniteGroup.symmetric(3), 2)
    ok = ok and [m.dim for m in r3.simples] == [1, 2]
    for p in (2, 3):
        for n in range(1, 5):
            rep = mr.simple_modules(mr.FiniteGroup.symmetric(n), p)
            ok = ok and len(rep.simples) == len(mr.p_regular_partitions(n, p))
            ok = ok and rep.accounting_ok
    line(11, ok, "Sym(2)/F2 one simple; Sym(3)/F2 dims {1,2}; counts match p-regular partitions (n<=4, p in {2,3}); accounting exact")


def test_criterion_12_classification(sk_hom, sk_plain):
    descs = sp.enumerate_simples(sk_hom, 2, seed=0)
    ok = len(descs) == 6
    for d in descs:
        cert, _ = sp.certify_simple(d.realization)
        supp, _ = sp.support_check(d.realization)
        G = vf.aut_sigma_group(sk_hom, d.rector_class, d.n)
        back = sp.delta_n_module(d.realization, d.n, d.rector_class, G)
        ok = ok and cert and supp == d.rector_class and mr.iso_modules(back, d.module)
    for a in range(len(descs)):
        for b in range(a + 1, len(descs)):
            ok = ok and not sp.functor_iso(descs[a].realization, descs[b].realization)
    plain_descs = sp.enumerate_simples(sk_plain, 3, seed=0)
    per = Counter(d.n for d in plain_descs)
    for n in range(4):
        ok = ok and per[n] == len(mr.p_regular_partitions(n, 2))
    line(12, ok, "6 pairwise non-isomorphic certified simples for the rank-one base; plain-base counts match 2-regular partitions, n <= 3")


def test_criterion_13_determinism(tmp_path):
    outs = []
    for run in (0, 1):
        path = tmp_path / f"det{run}.json"
        code = cli.main(
            ["--builtin", "representable", "--u-dim", "1", "--cap", "4", "--n-max", "2",
             "--seed", "42", "--output", str(path), "enumerate-simples"]
        )
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    # different seeds: same classification up to isomorphism
    sk = ec.Skeleton(sf.RepresentableFunctor(2, 1, 4))
    a = sp.enumerate_simples(sk, 2, seed=0)
    b = sp.enumerate_simples(sk, 2, seed=999)
    ok = ok and len(a) == len(b)
    for x in a:
        hits = [
            y for y in b
            if (y.rector_class, y.n) == (x.rector_class, x.n) and mr.iso_modules(x.module, y.module)
        ]
        ok = ok and len(hits) == 1
    line(13, ok, "identical seeds give byte-identical reports; different seeds re-match via module isomorphism")
