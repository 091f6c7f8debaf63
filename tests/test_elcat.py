"""Element-category skeletons: hom-sets, decomposition, block form."""

import inspect

import pytest

from functorlab.gf import LinearMap
from functorlab import elcat as ec
from functorlab import sfunctor as sf


@pytest.fixture(scope="module")
def SU2():
    return sf.RepresentableFunctor(2, 2, 3)


@pytest.fixture(scope="module")
def sk(SU2):
    return ec.Skeleton(SU2)


def obj_of(S, mat):
    lm = LinearMap.from_array(mat, S.p)
    S._table(lm.cols)
    return ec.ElObject(lm.cols, S._index[lm.cols][lm.data])


def test_hom_terminal_identity(SU2):
    o = ec.ElObject(0, 0)
    mors = ec.hom_set(SU2, o, o)
    assert len(mors) == 1 and mors[0].map.rows == 0


def test_hom_regular_to_regular_unique(SU2):
    psi = obj_of(SU2, [[1], [0]])
    eta = obj_of(SU2, [[1, 0], [0, 1]])
    mors = ec.hom_set(SU2, psi, eta)
    assert len(mors) == 1
    # solve eta . gamma = psi by hand: gamma = eta^{-1} psi
    assert mors[0].map.arr.tolist() == [[1], [0]]


def test_hom_factorization_all_pairs(sk, SU2):
    for a in sk.objects:
        for b in sk.objects:
            assert ec.hom_factorization_holds(SU2, sk, a.index, b.index)


def test_block_form_total_dim_le_3(sk, SU2):
    for a in sk.objects:
        for b in sk.objects:
            if a.dim <= 3 and b.dim <= 3:
                assert ec.verify_block_form(SU2, sk, a.index, b.index)


def test_decompose_regular(SU2):
    o = obj_of(SU2, [[1, 0], [0, 1]])
    t, u, iso = ec.decompose(SU2, o)
    assert t == o and u.dim == 0
    assert iso.map == LinearMap.identity(2, 2)


def test_decompose_trivial_element(SU2):
    o = sf.epsilon(SU2, 2)
    t, u, iso = ec.decompose(SU2, ec.ElObject(2, o.index))
    assert t.dim == 0 and u.dim == 2


def test_decompose_rank_one(SU2):
    o = obj_of(SU2, [[1, 0], [0, 0]])
    t, u, iso = ec.decompose(SU2, o)
    assert t.dim == 1 and u.basis_arr.tolist() == [[0, 1]]
    assert iso.verify(SU2)


def test_rector_skeleton_su2(sk):
    R = sk.rector
    assert len(R.classes) == 5
    assert sorted(c.dim for c in R.classes) == [0, 1, 1, 1, 2]
    assert all(len(a) == 1 for a in R.aut_groups)


def test_rector_skeleton_constant():
    S = sf.RepresentableFunctor(2, 0, 3)
    R = ec.build_rector_skeleton(S)
    assert len(R.classes) == 1 and R.classes[0].dim == 0
    assert len(R.aut_groups[0]) == 1


def test_rector_skeleton_orbit_functor_has_nontrivial_aut():
    gens = [LinearMap.from_array([[0, 1], [1, 0]], 2), LinearMap.from_array([[1, 1], [0, 1]], 2)]
    O = sf.OrbitFunctor(2, 2, gens, 2)
    R = ec.build_rector_skeleton(O)
    assert max(len(a) for a in R.aut_groups) > 1
    # stabilizer of the invertible-orbit element is the full GL_2
    big = max(R.aut_groups, key=len)
    assert len(big) == 6


def test_witnesses_land_on_representatives(sk, SU2):
    R = sk.rector
    for d in range(R.cap + 1):
        for s in sf.regular_set(SU2, d):
            cls, w = R.witnesses[s]
            rep = R.classes[cls]
            assert SU2.act(w, rep) == s
            assert w.is_invertible()


def test_representatives_pairwise_nonisomorphic(sk, SU2):
    R = sk.rector
    for i, a in enumerate(R.classes):
        for j, b in enumerate(R.classes):
            if i == j:
                continue
            isos = [m for m in ec.hom_set(SU2, a, b) if m.map.is_invertible()]
            assert not isos


def test_injectivity_su2(SU2, sk):
    ok, wit = ec.check_injectivity(SU2, sk.rector)
    assert ok, wit


def test_rep_of_routes_everything(sk, SU2):
    for d in range(SU2.cap + 1):
        for s in SU2.elements(d):
            idx, w = sk.rep_of(ec.ElObject(d, s.index))
            assert SU2.act(w, sk.objects[idx].obj) == s
            assert sk.objects[idx].dim == d


def test_generators_generate_all_homs(SU2):
    # closure of the generating family equals the full morphism sets
    small = ec.Skeleton(SU2, window=2)
    gens = small.generating_morphisms()
    n = len(small.objects)
    reach = {(i, i): {small.identity(i).data: small.identity(i)} for i in range(n)}
    for i, j, g in gens:
        reach.setdefault((i, j), {})[g.data] = g
    changed = True
    while changed:
        changed = False
        items = [(k, list(v.values())) for k, v in reach.items()]
        for (i, j), maps1 in items:
            for (j2, k), maps2 in items:
                if j2 != j:
                    continue
                for m1 in maps1:
                    for m2 in maps2:
                        c = m2 @ m1
                        if c.data not in reach.setdefault((i, k), {}):
                            reach[(i, k)][c.data] = c
                            changed = True
    for i in range(n):
        for j in range(n):
            expect = {g.data for g in small.hom(i, j)}
            got = set(reach.get((i, j), {}).keys())
            assert got == expect, (i, j, len(got), len(expect))


def test_generating_morphisms_built_once_per_skeleton(SU2, sk):
    gens = sk.generating_morphisms()
    assert sk.generating_morphisms() is gens
    assert gens == ec.Skeleton(SU2).generating_morphisms()
    # a plain function in the class dict, so it can be wrapped from there
    assert inspect.isfunction(ec.Skeleton.__dict__["generating_morphisms"])


def test_decompose_functor_laws(SU2):
    # induced regular/kernel block pairs respect identities and composition
    sk = ec.Skeleton(SU2, window=2)
    for a in sk.objects:
        for b in sk.objects:
            for gamma in sk.hom(a.index, b.index):
                f, g, h, zero_block = sk.blocks(a.index, b.index, gamma)
                assert zero_block
                for c in sk.objects:
                    for delta in sk.hom(b.index, c.index):
                        f2, g2, h2, _ = sk.blocks(b.index, c.index, delta)
                        comp = delta @ gamma
                        fc, gc, hc, _ = sk.blocks(a.index, c.index, comp)
                        assert fc == f2 @ f and hc == h2 @ h


def test_aut_acts_freely_on_hom_f_blocks(SU2, sk):
    # composing with a class automorphism permutes hom-sets without fixed points
    R = sk.rector
    for r, aut in enumerate(R.aut_groups):
        rep = R.classes[r]
        for g in aut:
            if g == LinearMap.identity(rep.dim, SU2.p):
                continue
            for b in R.classes:
                for m in ec.hom_set(SU2, rep, b):
                    assert (m.map @ g).data != m.map.data


def test_rector_report_shape(sk):
    rep = ec.rector_report(sk)
    assert len(rep["classes"]) == 5
    assert all(c["aut_order"] == 1 for c in rep["classes"])
    assert len(rep["hom_cardinalities"]) == 5
