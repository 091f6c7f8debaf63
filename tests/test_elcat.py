"""Element-category skeletons: hom-sets, decomposition, block form."""

import inspect

import numpy as np
import pytest

from functorlab.gf import DEFAULT_MAP_BUDGET, BudgetExceeded, count_maps, enumerate_maps, inverse, map_indices, rank
from functorlab import elcat as ec, gf
from functorlab import sfunctor as sf


@pytest.fixture(scope="module")
def SU2():
    return sf.RepresentableFunctor(2, 2, 3)


@pytest.fixture(scope="module")
def sk(SU2):
    return ec.Skeleton(SU2)


def obj_of(S, mat):
    s = next(e for e in S.elements(np.shape(mat)[1]) if np.array_equal(S.element_map(e), mat))
    return ec.ElObject(s.dim, s.index)


def test_hom_terminal_identity(SU2):
    o = ec.ElObject(0, 0)
    mors = ec.hom_set(SU2, o, o)
    assert mors.shape == (1, 0, 0) and mors.dtype == np.int64


def test_hom_regular_to_regular_unique(SU2):
    psi = obj_of(SU2, [[1], [0]])
    eta = obj_of(SU2, [[1, 0], [0, 1]])
    mors = ec.hom_set(SU2, psi, eta)
    assert len(mors) == 1
    # solve eta . gamma = psi by hand: gamma = eta^{-1} psi
    assert mors[0].tolist() == [[1], [0]]


def oracle_hom_set(S, a, b, budget=DEFAULT_MAP_BUDGET):
    """One act per map, in enumerate_maps order, as a (K, b.dim, a.dim) stack."""
    kept = [gamma for gamma in enumerate_maps(S.p, a.dim, b.dim, budget) if S.act(gamma, b) == a]
    return np.array(kept, dtype=np.int64).reshape(len(kept), b.dim, a.dim)


def same_hom_set(got, want, p):
    """Equal stacks, and their map positions strictly increase."""
    codes = map_indices(got, p)
    return got.dtype == np.int64 and np.array_equal(got, want) and bool((codes[1:] > codes[:-1]).all())


HOM_CASES = {
    "representable-u1-cap3": lambda: sf.RepresentableFunctor(2, 1, 3),
    "representable-u0-cap3": lambda: sf.RepresentableFunctor(2, 0, 3),
    "representable-p3-u1-cap2": lambda: sf.RepresentableFunctor(3, 1, 2),
    "orbit-p3": lambda: sf.OrbitFunctor(3, 2, [np.array([[2, 0], [0, 1]])], 2),
    "subspaces-cap2": lambda: sf.SubspaceFunctor(2, 2),
    "table": lambda: sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 1, 2))),
}


@pytest.mark.parametrize("case", HOM_CASES)
@pytest.mark.parametrize("slice_size", [gf.MAP_SLICE, 3])
def test_hom_set_matches_per_map_loop(case, slice_size, monkeypatch):
    # every pair of objects, zero-dimensional ones among them; first three
    # elements per dimension; at slice size 3 every hom-set of more than three
    # maps is walked in several slices
    monkeypatch.setattr(gf, "MAP_SLICE", slice_size)
    S = HOM_CASES[case]()
    objs = [ec.ElObject(d, i) for d in range(S.cap + 1) for i in range(min(S.size(d), 3))]
    assert objs[0].dim == 0
    for a in objs:
        for b in objs:
            assert same_hom_set(ec.hom_set(S, a, b), oracle_hom_set(S, a, b), S.p), (a, b)


def test_hom_set_walks_past_the_default_map_budget(monkeypatch):
    # hom_set answers to its own budget: with the default map budget below
    # the 4096 maps F^3 -> F^4, whole-stack enumeration raises, the slices do not
    S = sf.RepresentableFunctor(2, 1, 4)
    a, b = ec.ElObject(3, 5), ec.ElObject(4, 9)
    monkeypatch.setattr(gf, "DEFAULT_MAP_BUDGET", 100)
    assert count_maps(2, 3, 4) > gf.DEFAULT_MAP_BUDGET
    with pytest.raises(BudgetExceeded):
        gf.map_stack(2, 3, 4)
    got = ec.hom_set(S, a, b, budget=count_maps(2, 3, 4))
    assert len(got) == 2 ** 9
    assert same_hom_set(got, oracle_hom_set(S, a, b), 2)
    with pytest.raises(BudgetExceeded):
        ec.hom_set(S, a, b, budget=count_maps(2, 3, 4) - 1)


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
    assert np.array_equal(iso, np.eye(2, dtype=np.int64))


def test_decompose_trivial_element(SU2):
    o = sf.epsilon(SU2, 2)
    t, u, iso = ec.decompose(SU2, ec.ElObject(2, o.index))
    assert t.dim == 0 and u.dim == 2


def test_decompose_rank_one(SU2):
    o = obj_of(SU2, [[1, 0], [0, 0]])
    t, u, iso = ec.decompose(SU2, o)
    assert t.dim == 1 and u.basis_arr.tolist() == [[0, 1]]
    target = ec.ElObject(o.dim, sf.boxplus(SU2, t, u.dim).index)
    assert SU2.act(iso, target) == o and SU2.act(inverse(iso, SU2.p), o) == target


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
    gens = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 1]])]
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
            assert w.shape == (s.dim, s.dim) and rank(w, SU2.p) == s.dim


def test_representatives_pairwise_nonisomorphic(sk, SU2):
    R = sk.rector
    for i, a in enumerate(R.classes):
        for j, b in enumerate(R.classes):
            if i == j:
                continue
            isos = [m for m in ec.hom_set(SU2, a, b) if m.shape[0] == m.shape[1] == rank(m, SU2.p)]
            assert not isos


def test_injectivity_su2(SU2, sk):
    ok, wit = ec.check_injectivity(SU2, sk.rector)
    assert ok, wit


def oracle_check_injectivity(S, R, budget=DEFAULT_MAP_BUDGET):
    """The exhaustive pair loop: every morphism between every pair of regular
    elements, in that order, stopping at the first one that is not injective.
    Each hom-set into b is read off one pass over the maps into b's dimension
    instead of one per pair, which keeps u-dim 3 in seconds."""
    regs = [s for d in range(R.cap + 1) for s in sf.regular_set(S, d)]
    homs = {}
    for b in regs:
        for d in sorted({a.dim for a in regs}):
            for gamma in enumerate_maps(S.p, d, b.dim, budget):
                homs.setdefault((S.act(gamma, b), b), []).append(gamma)
    for a in regs:
        for b in regs:
            for gamma in homs.get((a, b), []):
                if rank(gamma, S.p) < gamma.shape[1]:
                    return False, gamma
    return True, None


def same_verdict(got, want):
    """Equal (ok, witness) pairs of check_injectivity, the witness a map or None."""
    (ok, wit), (ok2, wit2) = got, want
    if wit is None or wit2 is None:
        return ok == ok2 and wit is wit2
    return ok == ok2 and wit.shape == wit2.shape and np.array_equal(wit, wit2)


class LawfulTable(sf.TableFunctor):
    """A table declared lawful, so that the gate of the kernel calculus lets
    it in unvalidated: the one way a non-functor reaches check_injectivity."""

    lawful = True


def broken_lawful_table():
    """Not a functor, declared lawful: S(0) = {*}, S(1) = {x, y} with x the
    pullback of * along F^1 -> 0, and the zero endomorphism of F^1 sending x
    to y.  In a functor it would fix x, as it factors through F^1 -> 0.  No
    line idempotent fixes x, so the kernel calculus finds x regular, and F^1 ->
    0 is a morphism x -> * that is not injective."""
    action = {
        (0, 0, b""): (0,),
        (1, 0, b""): (0,),
        (0, 1, b""): (0, 0),
        (1, 1, b"\x00"): (1, 1),
        (1, 1, b"\x01"): (0, 1),
    }
    return LawfulTable(2, 1, [1, 2], action, name="broken-lawful")


def rank_deficient_table(p=2, cap=3):
    """Not a functor, declared lawful: S(d) = {a, b}, with alpha^* b = b and
    alpha^* a = a exactly when alpha is injective or square with no zero
    entry.  No line idempotent has that form, so every a is regular, and on
    F_2^2 the all-ones matrix, of rank one and last in enumeration order, is
    a morphism a -> a that is not injective, the seventh of hom(a, a)."""
    action = {}
    for n in range(cap + 1):
        for m in range(cap + 1):
            for alpha in enumerate_maps(p, n, m):
                keeps = rank(alpha, p) == n or (n == m and alpha.all())
                action[(n, m, alpha.astype(np.uint8).tobytes())] = (0 if keeps else 1, 1)
    return LawfulTable(p, cap, [2] * (cap + 1), action, name="rank-deficient")


INJECTIVITY_CASES = {
    **{f"representable-u{u}-cap3": (lambda u=u: sf.RepresentableFunctor(2, u, 3)) for u in range(4)},
    "orbit": lambda: sf.OrbitFunctor(2, 2, [np.array([[0, 1], [1, 0]])], 3),
    "subspaces-cap3": lambda: sf.SubspaceFunctor(2, 3),
    "table-roundtrip": lambda: sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 2, 3))),
    "broken-lawful": broken_lawful_table,
    "broken-rank-deficient": rank_deficient_table,
}


@pytest.mark.parametrize("case", INJECTIVITY_CASES)
def test_injectivity_matches_pair_loop(case):
    S, T = INJECTIVITY_CASES[case](), INJECTIVITY_CASES[case]()
    got = ec.check_injectivity(S, ec.build_rector_skeleton(S))
    want = oracle_check_injectivity(T, ec.build_rector_skeleton(T))
    assert same_verdict(got, want)
    assert got[0] == ("broken" not in case)


@pytest.mark.parametrize("case", [case for case in INJECTIVITY_CASES if "broken" in case])
def test_injectivity_across_slices(case, monkeypatch):
    # slices of two maps: the all-ones witness of the rank-deficient table
    # is the first map of the fourth slice of its hom-set
    monkeypatch.setattr(ec, "MAP_SLICE", 2)
    S, T = INJECTIVITY_CASES[case](), INJECTIVITY_CASES[case]()
    got = ec.check_injectivity(S, ec.build_rector_skeleton(S))
    assert same_verdict(got, oracle_check_injectivity(T, ec.build_rector_skeleton(T)))
    if case == "broken-rank-deficient":
        assert got[1].tolist() == [[1, 1], [1, 1]]


def test_rector_report_counts_class_hom_sets(sk):
    n = len(sk.rector.classes)
    want = [[len(sk.rector_hom(r1, r2)) for r2 in range(n)] for r1 in range(n)]
    assert ec.rector_report(sk.rector, ec.class_hom_sets(sk.rector))["hom_cardinalities"] == want


def test_rep_of_routes_everything(sk, SU2):
    for d in range(SU2.cap + 1):
        for s in SU2.elements(d):
            idx, w = sk.rep_of(ec.ElObject(d, s.index))
            assert SU2.act(w, sk.objects[idx].obj) == s
            assert sk.objects[idx].dim == d


def test_generators_generate_all_homs(SU2, sk):
    # the closure of the generating family equals the full morphism sets.
    # VecFunctor.validate needs this also with the generators cut to a window
    # below the skeleton's (sk has window 3); at p = 3 the generators include
    # scalings
    for skel in (ec.Skeleton(SU2, window=2), sk, ec.Skeleton(sf.RepresentableFunctor(3, 0, 2))):
        objs = [o.index for o in skel.objects if o.dim <= 2]
        ident = {i: skel.identity(i) for i in objs}
        reach = {(i, i): {ident[i].tobytes(): ident[i]} for i in objs}
        for i, j, g in skel.generating_morphisms():
            if i in objs and j in objs:
                reach.setdefault((i, j), {})[g.tobytes()] = g
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
                            c = m2 @ m1 % skel.p
                            if c.tobytes() not in reach.setdefault((i, k), {}):
                                reach[(i, k)][c.tobytes()] = c
                                changed = True
        for i in objs:
            for j in objs:
                expect = {g.tobytes() for g in skel.hom(i, j)}
                got = set(reach.get((i, j), {}).keys())
                assert got == expect, (skel.window, i, j, len(got), len(expect))


def test_generating_morphisms_built_once_per_skeleton(SU2, sk):
    gens = sk.generating_morphisms()
    assert sk.generating_morphisms() is gens
    again = ec.Skeleton(SU2).generating_morphisms()
    assert [(i, j) for i, j, _ in gens] == [(i, j) for i, j, _ in again]
    assert all(np.array_equal(g, h) for (_, _, g), (_, _, h) in zip(gens, again))
    # a plain function in the class dict, so it can be wrapped from there
    assert inspect.isfunction(ec.Skeleton.__dict__["generating_morphisms"])


@pytest.mark.parametrize("p,u_dim,cap", [(2, 0, 4), (2, 1, 4), (2, 2, 3), (3, 0, 3), (3, 1, 3), (5, 1, 2)])
def test_endomorphism_generators_count(p, u_dim, cap):
    # per object: the GL_v generators, one shear per regular coordinate when
    # there is a trivial one, and the automorphisms of the class but its identity
    skel = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, cap))
    ends = {}
    for i, j, _ in skel.generating_morphisms():
        if i == j:
            ends[i] = ends.get(i, 0) + 1
    for a in skel.objects:
        want = len(gf.gl_generators(p, a.vdim)) + a.wdim * (a.vdim > 0) + len(skel.rector.aut_groups[a.rclass]) - 1
        assert ends.get(a.index, 0) == want, (a.rclass, a.vdim)


def test_skeleton_hom_is_a_kept_read_only_stack(SU2, sk):
    for a in sk.objects:
        for b in sk.objects:
            stack = sk.hom(a.index, b.index)
            assert sk.hom(a.index, b.index) is stack and not stack.flags.writeable
            assert np.array_equal(stack, ec.hom_set(SU2, a.obj, b.obj))
    with pytest.raises(ValueError):
        sk.hom(0, 0)[...] = 0


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
                        comp = delta @ gamma % sk.p
                        fc, gc, hc, _ = sk.blocks(a.index, c.index, comp)
                        assert np.array_equal(fc, f2 @ f % sk.p) and np.array_equal(hc, h2 @ h % sk.p)


def test_aut_acts_freely_on_hom_f_blocks(SU2, sk):
    # composing with a class automorphism permutes hom-sets without fixed points
    R = sk.rector
    for r, aut in enumerate(R.aut_groups):
        rep = R.classes[r]
        for g in aut:
            if np.array_equal(g, np.eye(rep.dim, dtype=np.int64)):
                continue
            for b in R.classes:
                for m in ec.hom_set(SU2, rep, b):
                    assert not np.array_equal(m @ g % SU2.p, m)


def test_rector_report_shape(sk):
    rep = ec.rector_report(sk.rector, ec.class_hom_sets(sk.rector))
    assert len(rep["classes"]) == 5
    assert all(c["aut_order"] == 1 for c in rep["classes"])
    assert len(rep["hom_cardinalities"]) == 5


@pytest.mark.parametrize("p,u_dim,cap", [(2, 2, 3), (3, 1, 2)])
def test_special_morphisms_are_kept_read_only(p, u_dim, cap):
    # each special morphism is built once per skeleton: later calls return
    # the same read-only array, equal to one built afresh, and a caller that
    # writes into it fails
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, cap))
    for a in sk.objects:
        r, v, d, w = a.rclass, a.vdim, a.dim, a.wdim
        assert (d, w) == (a.obj.dim, a.obj.dim - v)
        perm = tuple(reversed(range(v)))
        fresh_perm = np.eye(d, dtype=np.int64)
        fresh_perm[w:, w:] = np.eye(v, dtype=np.int64)[:, list(perm)]
        kept = [
            (lambda: sk.identity(a.index), np.eye(d, dtype=np.int64)),
            (lambda: sk.perm_trivial(r, v, perm), fresh_perm),
        ]
        if v:
            kept.append((lambda: sk.drop_coords(r, v, (0,)), np.delete(np.eye(d, dtype=np.int64), w, axis=0)))
        if (r, v + 1) in sk.index:
            kept.append((lambda: sk.proj_one(r, v), np.eye(d, d + 1, dtype=np.int64)))
            kept.append((lambda: sk.incl_one(r, v), np.eye(d + 1, d, dtype=np.int64)))
        for get, fresh in kept:
            m = get()
            assert get() is m and not m.flags.writeable
            assert m.dtype == np.int64 and np.array_equal(m, fresh)
            if m.size:
                with pytest.raises(ValueError):
                    m[0, 0] = 1


@pytest.mark.parametrize("p,u_dim,cap", [(2, 2, 3), (3, 1, 2)])
def test_skeletal_morphisms_are_int64_matrices(p, u_dim, cap):
    # every morphism a Skeleton hands out is a (dim target, dim source) int64
    # matrix with entries in 0..p-1; those drawn from hom-set stacks, the
    # special morphisms and the kept generators are read-only
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, cap))

    def check(m, rows, cols, read_only=False):
        assert isinstance(m, np.ndarray) and m.dtype == np.int64 and m.shape == (rows, cols)
        assert ((m >= 0) & (m < p)).all()
        assert not read_only or not m.flags.writeable

    shears = 0
    for a in sk.objects:
        r, v, d = a.rclass, a.vdim, a.dim
        check(sk.identity(a.index), d, d, read_only=True)
        if (r, v + 1) in sk.index:
            check(sk.proj_one(r, v), d, d + 1, read_only=True)
            check(sk.incl_one(r, v), d + 1, d, read_only=True)
        check(sk.drop_coords(r, v, tuple(range(v))), a.wdim, d, read_only=True)
        check(sk.perm_trivial(r, v, tuple(reversed(range(v)))), d, d, read_only=True)
        for s in sk.shears(r, v):
            check(s, d, d)
            shears += 1
        for b in sk.objects:
            for gamma in sk.hom(a.index, b.index)[:4]:
                check(gamma, b.dim, a.dim, read_only=True)
                f, g, h, _ = sk.blocks(a.index, b.index, gamma)
                check(f, b.wdim, a.wdim, read_only=True)
                check(g, b.vdim, a.wdim, read_only=True)
                check(h, b.vdim, v, read_only=True)
    assert shears
    for i, j, g in sk.generating_morphisms():
        check(g, sk.objects[j].dim, sk.objects[i].dim, read_only=True)
    for r1, c1 in enumerate(sk.rector.classes):
        for r2, c2 in enumerate(sk.rector.classes):
            stack = sk.rector_hom(r1, r2)
            assert stack is sk.hom(sk.index[(r1, 0)], sk.index[(r2, 0)])
            for f in stack:
                check(f, c2.dim, c1.dim, read_only=True)
