"""Difference calculus, cross effects, polynomial filtration, adjunction."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from functorlab.gf import BudgetExceeded, enumerate_maps, restrict, rref
from functorlab import elcat as ec
from functorlab import gf
from functorlab import modrep as mr
from functorlab import sfunctor as sf
from functorlab import simples
from functorlab import vfunctor as vf
from gf_oracle import _stacked_nullspace
from gf_oracle import intertwiner_space as oracle_intertwiner_space


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


def maps_of(sk, i, j):
    """hom(i, j) as the skeleton's stack: one int64 matrix per map, in its order."""
    return sk.hom(i, j)


# -- constructors -------------------------------------------------------------


def test_forgetful_lift_dims(plain):
    T1 = tensor_lift(plain, 1)
    assert [d for (_, _, d) in T1.dims_list()] == [0, 1, 2, 3, 4]
    assert T1.validate()


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
    assert P.validate()


def oracle_cogen_mat(sk, target, i, j, gamma):
    """I[target](gamma): one product per map of hom(j, target), found by
    its bytes among hom(i, target)."""
    pos = {m.tobytes(): t for t, m in enumerate(maps_of(sk, i, target))}
    dst = maps_of(sk, j, target)
    out = np.zeros((len(dst), len(pos)), dtype=np.int64)
    for r, delta in enumerate(dst):
        out[r, pos[(delta @ gamma % sk.p).tobytes()]] = 1
    return out


def oracle_gen_mat(sk, source, i, j, gamma):
    """P[source](gamma): one product per map of hom(source, i), found by
    its bytes among hom(source, j)."""
    src = maps_of(sk, source, i)
    pos = {m.tobytes(): t for t, m in enumerate(maps_of(sk, source, j))}
    out = np.zeros((len(pos), len(src)), dtype=np.int64)
    for c, delta in enumerate(src):
        out[pos[(gamma @ delta % sk.p).tobytes()], c] = 1
    return out


@pytest.mark.parametrize("p,u_dim", [(2, 1), (2, 2), (3, 0)])
def test_hom_functor_rules_match_position_oracle(p, u_dim):
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, 2))
    objs = [o.index for o in sk.objects]
    for t in objs:
        I, P = vf.injective_cogen(sk, t), vf.projective_gen(sk, t)
        for i, j in itertools.product(objs, repeat=2):
            for gamma in maps_of(sk, i, j):
                assert np.array_equal(I.mat(i, j, gamma), oracle_cogen_mat(sk, t, i, j, gamma))
                assert np.array_equal(P.mat(i, j, gamma), oracle_gen_mat(sk, t, i, j, gamma))


def test_hom_functors_past_the_default_map_budget(monkeypatch):
    # hom(t, t) is listed under the skeleton's budget; with the default map
    # budget below its 512 maps, finding positions among them must not raise
    sk = ec.Skeleton(sf.RepresentableFunctor(2, 0, 3), budget=1 << 20)
    t = sk.index[(0, 3)]
    monkeypatch.setattr(gf, "DEFAULT_MAP_BUDGET", 100)
    gamma = maps_of(sk, t, t)[-1]
    assert len(sk.hom(t, t)) == 512
    I, P = vf.injective_cogen(sk, t), vf.projective_gen(sk, t)
    for F in (I, P):
        assert np.array_equal(F.mat(t, t, sk.identity(t)), np.eye(512, dtype=np.int64))
    assert np.array_equal(I.mat(t, t, gamma), oracle_cogen_mat(sk, t, t, t, gamma))
    assert np.array_equal(P.mat(t, t, gamma), oracle_gen_mat(sk, t, t, t, gamma))
    # the lower rows [g, h] of hom(t, t) are listed under the skeleton's budget too
    assert ec.verify_block_form(sk.S, sk, t, t)


def test_hom_functors_refuse_an_oversize_matrix(monkeypatch):
    # a morphism of hom(t, t) has a 512 x 512 matrix under both hom functors,
    # refused before it is allocated when the bound is one cell short
    sk = ec.Skeleton(sf.RepresentableFunctor(2, 0, 3))
    t = sk.index[(0, 3)]
    monkeypatch.setattr(vf, "MAX_RELATION_CELLS", 512 * 512)
    for F in (vf.injective_cogen(sk, t), vf.projective_gen(sk, t)):
        assert np.array_equal(F.mat(t, t, sk.identity(t)), np.eye(512, dtype=np.int64))
    monkeypatch.setattr(vf, "MAX_RELATION_CELLS", 512 * 512 - 1)
    for F in (vf.injective_cogen(sk, t), vf.projective_gen(sk, t)):
        with pytest.raises(BudgetExceeded, match="'hom matrix cells' exceeded: needs 262144, allows 262143"):
            F.mat(t, t, sk.identity(t))
        assert F.mat(0, 0, sk.identity(0)).shape == (F.dim(0), F.dim(0))


def oracle_validate(F):
    """The functor laws on every composable pair of morphisms inside the
    window, the triple loop that validate ran before it checked generators."""
    sk, idxs = F.sk, F.object_indices()
    if not all(np.array_equal(F.mat(i, i, sk.identity(i)), np.eye(F.dim(i), dtype=np.int64)) for i in idxs):
        return False
    return all(
        np.array_equal(F.mat(j, k, b) @ F.mat(i, j, a) % F.p, F.mat(i, k, b @ a % F.p))
        for i, j, k in itertools.product(idxs, repeat=3)
        for a in maps_of(sk, i, j)
        for b in maps_of(sk, j, k)
    )


def test_validate_matches_triple_loop(plain, skhom, monkeypatch):
    # functors at windows below their skeleton's, so the generators are cut;
    # slices of three betas, so most hom-sets are walked in several
    monkeypatch.setattr(vf, "MAP_SLICE", 3)
    G = vf.aut_sigma_group(skhom, 1, 2)
    M = vf.sigma_functor_from_module(skhom, 1, 2, mr.regular_module(G, 2))
    functors = [
        tensor_lift(plain, 1, window=2),
        tensor_lift(skhom, 2, window=2),
        vf.injective_cogen(skhom, skhom.index[(1, 1)], window=2),
        vf.projective_gen(skhom, skhom.index[(1, 0)], window=2),
        vf.tensor_sigma_n(skhom, M, 2, window=2),
    ]
    for F in functors:
        assert F.validate() and oracle_validate(F), F.name


def test_validate_matches_triple_loop_on_single_entry_flips(monkeypatch):
    # slices of three betas, so flips past the first slice are found too
    monkeypatch.setattr(vf, "MAP_SLICE", 3)
    sk = ec.Skeleton(sf.RepresentableFunctor(2, 1, 2))
    doc = vf.functor_to_json(tensor_lift(sk, 1))
    rejected = 0
    for key, mat in doc["maps"].items():
        for r, c in itertools.product(range(len(mat)), range(len(mat[0]) if mat else 0)):
            flipped = {**doc, "maps": {**doc["maps"], key: [row[:] for row in mat]}}
            flipped["maps"][key][r][c] ^= 1
            F = vf.functor_from_json(sk, flipped)
            ok = F.validate()
            assert ok == oracle_validate(F), (key, r, c)
            rejected += not ok
    assert rejected == sum(len(row) for mat in doc["maps"].values() for row in mat)


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


def _p_n_oracle(F, n, known_degree_bound=None):
    """The omission-system p_n: for each object i, one row block per map in
    hom(i, plus) of the kernel of the omission buckets, stacked into one
    system whose kernel is the value of p_n(F) at i."""
    sk = F.sk
    k = n + 1
    fast = known_degree_bound is not None and known_degree_bound <= k
    constraint_objs = [o for o in sk.objects if o.dim + k <= F.window and not (fast and o.vdim != 0)]
    if not constraint_objs:
        raise vf.WindowExceeded(f"window {F.window} too small to test degree {n}")
    bases = {}
    for i in F.object_indices():
        if F.dim(i) == 0:
            bases[i] = np.zeros((0, 0), dtype=np.int64)
            continue

        def rows():
            for o in constraint_objs:
                plus = sk.index[(o.rclass, o.vdim + k)]
                homs = maps_of(sk, i, plus)
                if not len(homs):
                    continue
                pos = {g.tobytes(): t for t, g in enumerate(homs)}
                omission_rows = []
                for t in range(k):
                    pi = sk.drop_coords(o.rclass, o.vdim + k, (o.vdim + t,))
                    buckets = {}
                    for g in homs:
                        buckets.setdefault((pi @ g).tobytes(), []).append(pos[g.tobytes()])
                    for members in buckets.values():
                        row = np.zeros(len(homs), dtype=np.int64)
                        row[members] = 1
                        omission_rows.append(row)
                romega, piv = rref(np.stack(omission_rows), F.p)
                romega = romega[: len(piv)]
                G = np.stack([F.mat(i, plus, g) for g in homs])
                H, nout, nin = G.shape
                flat = G.reshape(H, nout * nin)
                lift = (romega.T @ flat[piv].reshape(len(piv), nout * nin)) % F.p
                yield ((flat - lift) % F.p).reshape(H * nout, nin)

        bases[i] = _stacked_nullspace(rows(), F.dim(i), F.p)
    out = vf.SubFunctor(F, bases)
    if not out.is_stable():
        raise ValueError("greatest polynomial subfunctor came out unstable; window too small")
    return out


def _assert_p_n_matches_oracle(F, n, known_degree_bound=None):
    try:
        want = _p_n_oracle(F, n, known_degree_bound)
    except (vf.WindowExceeded, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            vf.p_n(F, n, known_degree_bound)
        assert str(got.value) == str(exc)
        return None
    got = vf.p_n(F, n, known_degree_bound)
    assert got.bases.keys() == want.bases.keys()
    for i in want.bases:
        assert got.bases[i].shape == want.bases[i].shape, (F.name, n, i)
        assert np.array_equal(got.bases[i], want.bases[i]), (F.name, n, i)
    return got


def _p_n_cases(plain, skhom):
    """(functor, n, known degree bound) triples covering lifts, sums,
    cogenerators, symmetrizer images, p = 3 and a balanced tensor."""
    for sk in (plain, skhom):
        for deg in (1, 2):
            F = tensor_lift(sk, deg, window=3)
            for n in range(3):
                yield F, n, None
                yield F, n, deg
            yield F, 3, None  # no object has four dimensions of headroom
    T1, T2 = tensor_lift(plain, 1, window=3), tensor_lift(plain, 2, window=3)
    for n in range(3):
        yield vf.direct_sum(T2, T1), n, 2
        yield vf.direct_sum(T2, T1), n, None
    for sk in (plain, skhom):
        for o in sk.objects:
            if o.dim <= 2:
                I = vf.injective_cogen(sk, o.index, window=2)
                yield I, 0, None
                yield I, 1, None
    for parts, n in [((1,), 1), ((2,), 2), ((2, 1), 3)]:
        lam = mr.Partition(parts)
        img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(lam, n, 2), n, 2)
        yield vf.forgetful_lift(plain, img, window=3), n - 1, n
    sk3 = ec.Skeleton(sf.RepresentableFunctor(3, 1, 2))
    for deg in (1, 2):
        F = vf.forgetful_lift(sk3, vf.TensorPower(deg, 3))
        for n in range(2):
            yield F, n, None
            yield F, n, deg
    G = vf.aut_sigma_group(skhom, 1, 2)
    mod = mr.simple_modules(G, 2, seed=0).simples[-1]
    TM = vf.tensor_sigma_n(skhom, vf.sigma_functor_from_module(skhom, 1, 2, mod), 2)
    yield TM, 1, 2


def test_p_n_matches_omission_system_oracle(plain, skhom):
    answered = raised = proper = 0
    for F, n, bound in _p_n_cases(plain, skhom):
        got = _assert_p_n_matches_oracle(F, n, bound)
        if got is None:
            raised += 1
            continue
        answered += 1
        proper += 0 < got.total_dim() < F.total_dim()
    assert answered >= 50 and raised >= 4 and proper >= 10


def test_p_n_never_enumerates_hom_sets(plain, monkeypatch):
    F = vf.direct_sum(tensor_lift(plain, 2, window=3), tensor_lift(plain, 1, window=3))
    want = _p_n_oracle(F, 1, 2)

    def refuse(self, i, j):
        raise AssertionError("p_n enumerated a hom-set")

    monkeypatch.setattr(ec.Skeleton, "hom", refuse)
    for bound in (2, None):
        got = vf.p_n(F, 1, known_degree_bound=bound)
        assert all(np.array_equal(got.bases[i], want.bases[i]) for i in want.bases)


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
        for gamma in maps_of(skhom, start, o.index):
            vecs.append((F.mat(start, o.index, gamma) @ x) % 2)
        from functorlab.gf import rref

        r, piv = rref(np.stack(vecs), 2)
        assert len(piv) == gen.bases[o.index].shape[0]


def _generated_oracle(F, start, vectors):
    """Fixed-point closure: every basis through every generating morphism,
    round after round, until no basis grows."""
    sk, p = F.sk, F.p
    vecs = np.asarray(vectors, dtype=np.int64).reshape(-1, F.dim(start)) % p
    bases = {i: np.zeros((0, F.dim(i)), dtype=np.int64) for i in F.object_indices()}
    r, piv = rref(vecs, p)
    bases[start] = r[: len(piv)]
    gens = [(i, j, g) for (i, j, g) in sk.generating_morphisms() if i in bases and j in bases]
    changed = True
    while changed:
        changed = False
        for i, j, g in gens:
            if bases[i].shape[0] == 0:
                continue
            img = (F.mat(i, j, g) @ bases[i].T).T % p
            nb, piv = rref(np.concatenate([bases[j], img], axis=0), p)
            if len(piv) != bases[j].shape[0]:
                bases[j] = nb[: len(piv)]
                changed = True
    return bases


def _assert_generated_matches_oracle(F, start, vectors):
    got = vf.generated_subfunctor(F, start, vectors)
    want = _generated_oracle(F, start, vectors)
    assert got.bases.keys() == want.keys()
    for i in want:
        assert np.array_equal(got.bases[i], want[i]), (F.name, start, i)
    return got


def _starts(F, rng, per_object=3):
    """Random start vectors (one or two at a time) at every object with values."""
    for i in F.object_indices():
        for _ in range(per_object if F.dim(i) else 0):
            yield i, rng.integers(0, F.p, size=(int(rng.integers(1, 3)), F.dim(i)))


def test_generated_subfunctor_matches_fixed_point_oracle(plain, skhom):
    rng = np.random.default_rng(7)
    G = vf.aut_sigma_group(skhom, 0, 2)
    TM = vf.tensor_sigma_n(skhom, vf.sigma_functor_from_module(skhom, 0, 2, mr.trivial_module(G, 2)), 2)
    functors = [
        tensor_lift(skhom, 2, window=2),
        tensor_lift(plain, 2, window=3),
        vf.injective_cogen(skhom, skhom.index[(1, 1)], window=2),
        TM,
    ]
    proper = 0
    for F in functors:
        for start, vecs in _starts(F, rng):
            gen = _assert_generated_matches_oracle(F, start, vecs)
            proper += 0 < gen.total_dim() < F.total_dim()
    # every nonzero vector of one value space, from the tensor square
    F = functors[0]
    start = skhom.index[(0, 2)]
    for x in itertools.product(range(2), repeat=F.dim(start)):
        _assert_generated_matches_oracle(F, start, np.asarray(x))
    assert proper >= 10


def test_random_subfunctor_matches_sum_of_generated(plain, skhom):
    # one closure of all the seeds against the union of one oracle closure per seed
    for sk, n in [(plain, 2), (skhom, 2), (plain, 3)]:
        F = tensor_lift(sk, n, window=3)
        idxs = [i for i in F.object_indices() if F.dim(i) > 0]
        for seed in range(6):
            got = vf.random_subfunctor(F, np.random.default_rng(1000 + seed), max_seeds=3)
            rng = np.random.default_rng(1000 + seed)
            want = {i: np.zeros((0, F.dim(i)), dtype=np.int64) for i in F.object_indices()}
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.choice(idxs))
                gen = _generated_oracle(F, i, rng.integers(0, F.p, size=F.dim(i)))
                for j in want:
                    r, piv = rref(np.concatenate([want[j], gen[j]]), F.p)
                    want[j] = r[: len(piv)]
            assert all(np.array_equal(got.bases[j], want[j]) for j in want)


def test_certify_simple_witness_matches_oracle(plain, skhom):
    # One functor per condition of the condensation criterion at o.  (b) The
    # trivial-module tensor: F(o) generates a proper subfunctor, the witness.
    # (a) T1 + T1 over the plain base: F(o) is not a simple End(o)-module,
    # and the witness is the subfunctor generated by a proper submodule.
    # (c) The constant functor over the rank-one base: the witness is the
    # largest subfunctor vanishing at o, the joint kernel of F(g) over g in
    # hom(-, o).
    from functorlab import simples as sp
    from functorlab.gf import nullspace

    G = vf.aut_sigma_group(skhom, 0, 2)
    TM = vf.tensor_sigma_n(skhom, vf.sigma_functor_from_module(skhom, 0, 2, mr.trivial_module(G, 2)), 2)
    T1 = tensor_lift(plain, 1, window=2)
    for F, condition in ((TM, "b"), (vf.direct_sum(T1, T1), "a"), (vf.constant_functor(skhom, window=3), "c")):
        ok, witness = sp.certify_simple(F)
        assert not ok and witness.is_stable() and 0 < witness.total_dim() < F.total_dim()
        sk = F.sk
        o = min((i for i in F.object_indices() if F.dim(i)), key=lambda i: (F.dim(i), sk.objects[i].dim))
        at_o = witness.bases[o]
        if condition == "c":
            assert at_o.shape[0] == 0
            want = {}
            for i in F.object_indices():
                maps = [F.mat(i, o, g) for g in maps_of(sk, i, o)]
                want[i] = nullspace(np.concatenate(maps or [np.zeros((0, F.dim(i)), dtype=np.int64)]), 2)
        else:
            assert 0 < at_o.shape[0] <= F.dim(o) and (at_o.shape[0] == F.dim(o)) == (condition == "b")
            for g in maps_of(sk, o, o):  # an End(o)-submodule
                img = (at_o @ F.mat(o, o, g).T) % 2
                assert len(rref(np.concatenate([at_o, img]), 2)[1]) == at_o.shape[0]
            want = _generated_oracle(F, o, at_o)
        assert all(np.array_equal(witness.bases[k], want[k]) for k in want)


def _is_stable_oracle(sub):
    F = sub.parent
    for i, j, g in F.sk.generating_morphisms():
        if F.sk.objects[i].dim > F.window or F.sk.objects[j].dim > F.window:
            continue
        for row in (F.mat(i, j, g) @ sub.bases[i].T).T % F.p:
            if len(rref(np.concatenate([sub.bases[j], row.reshape(1, -1)]), F.p)[1]) != sub.bases[j].shape[0]:
                return False
    return True


def _contains_oracle(big, small):
    for i, b in small.bases.items():
        for row in b:
            if len(rref(np.concatenate([big.bases[i], row.reshape(1, -1)]), big.parent.p)[1]) != big.bases[i].shape[0]:
                return False
    return True


def _random_family(F, rng):
    """Independent random subspaces per object: almost never stable."""
    bases = {}
    for i in F.object_indices():
        r, piv = rref(rng.integers(0, F.p, size=(int(rng.integers(0, F.dim(i) + 1)), F.dim(i))), F.p)
        bases[i] = r[: len(piv)]
    return vf.SubFunctor(F, bases)


def test_is_stable_and_contains_match_per_row_oracles(skhom):
    rng = np.random.default_rng(11)
    F = tensor_lift(skhom, 2, window=2)
    families = [vf.zero_subfunctor(F), vf.full_subfunctor(F), vf.p_n(F, 1, known_degree_bound=2)]
    families += [vf.generated_subfunctor(F, i, v) for i, v in _starts(F, rng, per_object=1)]
    families += [_random_family(F, rng) for _ in range(8)]
    stable = [_is_stable_oracle(s) for s in families]
    assert [s.is_stable() for s in families] == stable
    assert any(stable) and not all(stable)
    held = []
    for a in families:
        for b in families:
            want = _contains_oracle(a, b)
            assert a.contains(b) == want
            held.append(want)
    assert any(held) and not all(held)


def test_is_stable_detects_a_missing_image(skhom):
    F = tensor_lift(skhom, 2, window=2)
    start, below = skhom.index[(0, 2)], skhom.index[(0, 1)]
    sub = vf.generated_subfunctor(F, start, [1, 0, 0, 1])
    unstable = vf.SubFunctor(F, {**sub.bases, below: np.zeros((0, F.dim(below)), dtype=np.int64)})
    assert sub.is_stable() and not unstable.is_stable()


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
                g = skhom._diag(f, np.eye(o.vdim, dtype=np.int64))
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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("u_dim", [0, 1])
def test_sigma_hom_space_matches_kronecker_oracle(monkeypatch, p, u_dim):
    # every system sigma_hom_space solves, against the oracle: M -> D^n T(M)
    # and back for trivial, regular and simple M on each class, M -> D^n F
    # and back and D^n F -> D^n F for F = T^n + constant
    solved = []

    def checked(shapes, blocks, p):
        blocks = list(blocks)
        got = gf.intertwiner_space(shapes, blocks, p)
        want = oracle_intertwiner_space(shapes, iter(blocks), p)
        assert len(got) == len(want)
        assert all(all(np.array_equal(g[k], w[k]) for k in shapes) for g, w in zip(got, want))
        solved.append(len(want))
        return got

    monkeypatch.setattr(vf, "intertwiner_space", checked)
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, 3))
    for n in (1, 2, 3) if u_dim == 0 else (1, 2):
        F = vf.direct_sum(vf.forgetful_lift(sk, vf.TensorPower(n, p)), vf.constant_functor(sk))
        DF = vf.delta_n_sigma(F, n)
        vf.sigma_hom_space(DF, DF)
        for r in range(len(sk.rector.classes)):
            G = vf.aut_sigma_group(sk, r, n)
            for mod in [mr.trivial_module(G, p), mr.regular_module(G, p)] + mr.simple_modules(G, p).simples:
                M = vf.sigma_functor_from_module(sk, r, n, mod)
                D = vf.delta_n_sigma(vf.tensor_sigma_n(sk, M, n), n)
                for A, B in ((M, D), (D, M), (M, DF), (DF, M)):
                    vf.sigma_hom_space(A, B)
    assert len(solved) >= 30 and max(solved) >= 2


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


def oracle_is_natural(t, budget=100_000):
    """Naturality on every morphism of every hom-set inside the window."""
    A, B, sk, w = t.src, t.dst, t.src.sk, t.window()
    objs = [o.index for o in sk.objects if o.dim <= w]
    homs = [(i, j, maps_of(sk, i, j)) for i in objs for j in objs]
    assert sum(len(h) for _, _, h in homs) <= budget
    return all(
        np.array_equal((t.mats[j] @ A.mat(i, j, g)) % A.p, (B.mat(i, j, g) @ t.mats[i]) % A.p)
        for i, j, h in homs
        for g in h
    )


def test_nat_space_verified_against_full_homs(skhom):
    A = tensor_lift(skhom, 1, window=2)
    B = tensor_lift(skhom, 1, window=2)
    basis = vf.nat_space(A, B)
    for t in basis:
        assert t.is_natural() and oracle_is_natural(t)
        # a one-entry change at each object: the two checks still agree
        for i, m in t.mats.items():
            if m.size:
                bent = vf.NatTransform(A, B, {**t.mats, i: m.copy()})
                bent.mats[i][0, 0] ^= 1
                assert bent.is_natural() == oracle_is_natural(bent)


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


def _kron_power(a, n):
    """a^{(x)n} formed by a chain of np.kron: the oracle for the paths that
    apply tensor powers one factor at a time."""
    out = np.eye(1, dtype=np.int64)
    for _ in range(n):
        out = np.kron(out, a)
    return out


def _kron_tensor_rule(TM, i, j, gamma):
    """The balanced tensor's morphism matrix with h^{(x)n} (x) M(f) formed."""
    f, _, h, zero = TM.sk.blocks(i, j, gamma)
    assert zero
    rm = TM.M.rmap(TM.sk.objects[i].rclass, TM.sk.objects[j].rclass, f)
    plain = np.kron(_kron_power(h, TM.n), rm) % TM.p
    return (TM.plain_to_quotient(j) @ plain @ TM.quotient_to_plain(i)) % TM.p


def _balanced_tensors(sk, n):
    """Balanced tensors of degree n as the classification and the adjunction
    build them: every class's trivial, regular and simple modules, and the
    counit's tensor of the n-fold difference of T^n."""
    out = []
    for rclass in range(len(sk.rector.classes)):
        G = vf.aut_sigma_group(sk, rclass, n)
        for mod in [mr.trivial_module(G, 2), mr.regular_module(G, 2)] + mr.simple_modules(G, 2).simples:
            out.append(vf.tensor_sigma_n(sk, vf.sigma_functor_from_module(sk, rclass, n, mod), n))
    out.append(vf.counit(tensor_lift(sk, n), n)[1])
    return out


@pytest.mark.parametrize("u_dim,n", [(0, 2), (0, 3), (1, 2)], ids=["plain-n2", "plain-n3", "rank-one-n2"])
def test_tensor_sigma_matches_kron_oracle(u_dim, n):
    sk = ec.Skeleton(sf.RepresentableFunctor(2, u_dim, 3))
    zero = nonzero = 0
    for TM in _balanced_tensors(sk, n):
        for i in TM.object_indices():
            for j in TM.object_indices():
                for g in maps_of(sk, i, j):
                    got = TM.mat(i, j, g)
                    assert np.array_equal(got, _kron_tensor_rule(TM, i, j, g))
                    zero += got.size == 0
                    nonzero += bool(got.any())
    assert zero and nonzero  # both the empty shortcut and real products ran


def test_tensor_sigma_refuses_an_oversize_relation_matrix(monkeypatch):
    # at v = 2, n = 2 the relation matrix has (n - 1) * 4 rows of 4 cells
    sk = ec.Skeleton(sf.RepresentableFunctor(2, 0, 3))
    M = vf.sigma_functor_from_module(sk, 0, 2, mr.trivial_module(vf.aut_sigma_group(sk, 0, 2), 2))
    monkeypatch.setattr(vf, "MAX_RELATION_CELLS", 16)
    assert vf.tensor_sigma_n(sk, M, 2, window=2).dim(sk.index[(0, 2)]) == 3
    monkeypatch.setattr(vf, "MAX_RELATION_CELLS", 15)
    with pytest.raises(BudgetExceeded, match="needs 16, allows 15"):
        vf.tensor_sigma_n(sk, M, 2, window=2)


def test_tensor_sigma_freed_without_the_cycle_collector(skhom):
    # a balanced tensor holds no reference to itself, so dropping the last
    # reference frees it and its matrix caches without waiting for gc
    G = vf.aut_sigma_group(skhom, 1, 2)
    TM = vf.tensor_sigma_n(skhom, vf.sigma_functor_from_module(skhom, 1, 2, mr.regular_module(G, 2)), 2)
    i = skhom.index[(1, 2)]
    assert TM.mat(i, i, maps_of(skhom, i, i)[0]).size
    ref = weakref.ref(TM)
    gc.disable()
    try:
        del TM
        assert ref() is None
    finally:
        gc.enable()


def test_tensor_of_unit_matches_kron_oracle(skhom):
    # the unit tensored with the identity on the n tensor factors, as
    # adjunction_check builds it, against kron(I_{v^n}, unit)
    n, checked = 2, 0
    for rclass in (0, 1):
        G = vf.aut_sigma_group(skhom, rclass, n)
        for mod in [mr.trivial_module(G, 2), mr.regular_module(G, 2)]:
            M = vf.sigma_functor_from_module(skhom, rclass, n, mod)
            TM = vf.tensor_sigma_n(skhom, M, n, window=3)
            _, T_DTM, DTM = vf.counit(TM, n)
            units = {
                r: vf.unit_map(M, TM, DTM, r) if M.dim(r) else np.zeros((DTM.dim(r), 0), dtype=np.int64)
                for r in range(len(skhom.rector.classes))
            }
            tu = vf.tensor_of_unit(M, TM, T_DTM, units)
            for o in skhom.objects:
                if o.dim > TM.window:
                    continue
                plain = np.kron(np.eye(o.vdim**n, dtype=np.int64), units[o.rclass]) % 2
                want = (T_DTM.plain_to_quotient(o.index) @ plain @ TM.quotient_to_plain(o.index)) % 2
                assert np.array_equal(tu.mats[o.index], want)
                checked += bool(want.any())
    assert checked


def _all_maps(p, top):
    return [g for r in range(top + 1) for c in range(top + 1) for g in enumerate_maps(p, r, c)]


@pytest.mark.parametrize("p,top", [(2, 3), (3, 2)])
def test_tensor_power_matches_kron_oracle(p, top):
    for n in range(4):
        T = vf.TensorPower(n, p)
        for g in _all_maps(p, top):
            assert np.array_equal(T.mat(g), _kron_power(g, n) % p)


@pytest.mark.parametrize("p,top", [(2, 3), (3, 2)])
def test_symmetrizer_image_matches_kron_oracle(p, top):
    for parts in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        if not mr.Partition(parts).is_p_regular(p):
            continue
        n = sum(parts)
        img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(mr.Partition(parts), n, p), n, p)
        for g in _all_maps(p, top):
            want = restrict(_kron_power(g, n), img.basis(g.shape[1]), img.basis(g.shape[0]), p)
            assert np.array_equal(img.mat(g), want)


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
                        m = F.map_at(o, o2, mor)
                        assert m.shape == (F.value_dim_at(o2), F.value_dim_at(o))
                        done += 1
    assert done > 10


def test_query_routing_respects_composition(skhom):
    from functorlab import elcat as ec2

    S = skhom.S
    F = tensor_lift(skhom, 2, window=3)
    # two composable non-skeletal morphisms: routed matrices must compose
    m_a, m_b = np.array([[1, 1]]), np.array([[1]])
    a = ec2.ElObject(2, next(e.index for e in S.elements(2) if np.array_equal(S.element_map(e), m_a)))
    b = ec2.ElObject(1, next(e.index for e in S.elements(1) if np.array_equal(S.element_map(e), m_b)))
    for m1 in ec2.hom_set(S, a, b):
        for m2 in ec2.hom_set(S, b, a):
            comp = m2 @ m1 % S.p
            lhs = (F.map_at(b, a, m2) @ F.map_at(a, b, m1)) % 2
            assert np.array_equal(lhs, F.map_at(a, a, comp))


def test_function_space_lift(plain):
    # the standard injective of plain functors, lifted; not polynomial on any
    # finite window, and the difference dims follow rank-nullity
    I1 = vf.forgetful_lift(plain, vf.FunctionSpace(1, 2), window=3)
    assert [I1.dim(plain.index[(0, v)]) for v in range(4)] == [1, 2, 4, 8]
    assert I1.validate()
    deg, _ = vf.polynomial_degree(I1)
    assert deg is None
    # restriction of functions along an injection of hom-sets is onto
    d = vf.delta_bar(I1)
    assert [d.dim(plain.index[(0, v)]) for v in range(3)] == [1, 2, 4]


def oracle_function_space_mat(F, gamma):
    """One matrix product per basis map f, found by its bytes among
    enumerate_maps."""
    src = {f.tobytes(): i for i, f in enumerate(enumerate_maps(F.p, gamma.shape[1], F.target_dim))}
    dst = list(enumerate_maps(F.p, gamma.shape[0], F.target_dim))
    out = np.zeros((len(dst), len(src)), dtype=np.int64)
    for j, f in enumerate(dst):
        out[j, src[(f @ gamma % F.p).tobytes()]] = 1
    return out


@pytest.mark.parametrize("p,target", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_function_space_matches_composition_loop(p, target):
    F = vf.FunctionSpace(target, p)
    for rows in range(3):
        for cols in range(3):
            for gamma in enumerate_maps(p, cols, rows):
                assert np.array_equal(F.mat(gamma), oracle_function_space_mat(F, gamma)), gamma


def test_functor_json_roundtrip_p11():
    # entries of 10 and above need the separator-joined map keys
    sk = ec.Skeleton(sf.RepresentableFunctor(11, 0, 2))
    F = vf.forgetful_lift(sk, vf.TensorPower(2, 11), window=1)
    doc = vf.functor_to_json(F)
    G = vf.functor_from_json(sk, doc)
    assert vf.functor_to_json(G) == doc
    i = sk.index[(0, 1)]
    g = np.array([[10]], dtype=np.int64)
    assert np.array_equal(G.mat(i, i, g), F.mat(i, i, g))


def _identity_start_nat(A, B):
    """nat_space's system solved by the Kronecker oracle, whose kernel starts
    from the identity on every unknown entry."""
    sk, w = A.sk, min(A.window, B.window)
    shapes = {o.index: (B.dim(o.index), A.dim(o.index)) for o in sk.objects if o.dim <= w}
    blocks = (
        (i, j, A.mat(i, j, g), B.mat(i, j, g))
        for (i, j, g) in sk.generating_morphisms()
        if sk.objects[i].dim <= w and sk.objects[j].dim <= w
    )
    return oracle_intertwiner_space(shapes, blocks, A.p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("u_dim", [0, 1])
def test_nat_space_from_generators_equals_the_identity_start_solve(p, u_dim):
    # the condensed start changes no basis: T(M) -> F and back, cogenerators,
    # and every pair of classified simples
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, 4))
    pairs = []
    for rclass, n in simples.simple_tasks(sk, 2):
        if n == 0:
            continue
        F = vf.forgetful_lift(sk, vf.TensorPower(n, p))
        G = vf.aut_sigma_group(sk, rclass, n)
        TM = vf.tensor_sigma_n(sk, vf.sigma_functor_from_module(sk, rclass, n, mr.regular_module(G, p)), n)
        pairs += [(TM, F), (F, TM)]
    cogens = [vf.injective_cogen(sk, sk.index[(r, 0)], window=2) for r in range(len(sk.rector.classes))]
    pairs += [(I, J) for I in cogens for J in cogens]
    pairs.append((vf.forgetful_lift(sk, vf.TensorPower(1, p), window=2), cogens[0]))
    found = [d.realization for d in simples.enumerate_simples(sk, 2, seed=1)]
    pairs += [(S, T) for S in found for T in found]
    proper = 0
    for A, B in pairs:
        got, want = vf.nat_space(A, B), _identity_start_nat(A, B)
        assert len(got) == len(want), (A.name, B.name)
        assert all(t.mats.keys() == w.keys() and all(np.array_equal(t.mats[k], w[k]) for k in w) for t, w in zip(got, want))
        proper += bool(want)
    assert proper >= len(found)
