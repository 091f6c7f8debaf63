"""Groups, modules, splitting, partitions and symmetrizer ideals."""

import itertools

import numpy as np
import pytest

from functorlab.gf import BudgetExceeded, LinearMap, enumerate_vectors, rref
from functorlab import modrep as mr


@pytest.fixture(scope="module")
def S3():
    return mr.FiniteGroup.symmetric(3)


def test_symmetric_group_tables(S3):
    assert len(S3) == 6
    assert S3.validate()
    assert len(mr.FiniteGroup.symmetric(4)) == 24


def test_group_from_matrices():
    gens = [LinearMap.from_array([[0, 1], [1, 0]], 2), LinearMap.from_array([[1, 1], [0, 1]], 2)]
    G = mr.FiniteGroup.from_mul(
        sorted(set(_mulclose(gens)), key=lambda m: m.data), lambda a, b: a @ b
    )
    assert len(G) == 6 and G.validate()


def _mulclose(gens):
    els = {g.data: g for g in gens}
    els[LinearMap.identity(2, 2).data] = LinearMap.identity(2, 2)
    frontier = list(els.values())
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a @ b
                if c.data not in els:
                    els[c.data] = c
                    new.append(c)
        frontier = new
    return els.values()


def test_product_group(S3):
    S2 = mr.FiniteGroup.symmetric(2)
    P = mr.FiniteGroup.product(S3, S2)
    assert len(P) == 12 and P.validate()


def test_regular_module_validates(S3):
    M = mr.regular_module(S3, 2)
    assert M.validate()


def test_trivial_group_single_simple():
    G = mr.FiniteGroup.trivial()
    rep = mr.simple_modules(G, 2)
    assert [m.dim for m in rep.simples] == [1]


def test_sym2_f2_single_simple():
    rep = mr.simple_modules(mr.FiniteGroup.symmetric(2), 2)
    assert [m.dim for m in rep.simples] == [1]
    assert rep.multiplicities == [2]
    assert rep.accounting_ok


def test_sym3_f2_two_simples(S3):
    rep = mr.simple_modules(S3, 2)
    assert [m.dim for m in rep.simples] == [1, 2]
    assert rep.accounting_ok


def test_regular_module_is_reducible(S3):
    M = mr.regular_module(mr.FiniteGroup.symmetric(2), 2)
    assert not mr.is_irreducible(M)


def test_dim_one_is_irreducible(S3):
    assert mr.is_irreducible(mr.trivial_module(S3, 2))


def test_simple_counts_match_p_regular_partitions():
    for p in (2, 3):
        for n in range(1, 5):
            rep = mr.simple_modules(mr.FiniteGroup.symmetric(n), p)
            assert len(rep.simples) == len(mr.p_regular_partitions(n, p))
            assert rep.accounting_ok


def test_seed_determinism_and_seed_independence(S3):
    a = mr.simple_modules(S3, 2, seed=0)
    b = mr.simple_modules(S3, 2, seed=0)
    assert [m.dim for m in a.simples] == [m.dim for m in b.simples]
    assert all(
        np.array_equal(x.gen_mats[g], y.gen_mats[g])
        for x, y in zip(a.simples, b.simples)
        for g in S3.generators
    )
    c = mr.simple_modules(S3, 2, seed=12345)
    assert len(a.simples) == len(c.simples)
    for x, y in zip(a.simples, c.simples):
        assert mr.iso_modules(x, y)


def test_iso_modules_conjugate_copies(S3):
    rep = mr.simple_modules(S3, 2)
    two = next(m for m in rep.simples if m.dim == 2)
    # conjugate copy
    P = np.asarray([[1, 1], [0, 1]])
    Pinv = np.asarray([[1, 1], [0, 1]])
    conj = mr.GroupModule(
        S3, 2, 2, {g: (P @ two.gen_mats[g] @ Pinv) % 2 for g in S3.generators}
    )
    assert conj.validate()
    assert mr.iso_modules(two, conj)
    assert not mr.iso_modules(two, mr.trivial_module(S3, 2))


def test_partitions():
    assert [p.parts for p in mr.partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in mr.p_regular_partitions(2, 2)] == [(2,)]
    assert [p.parts for p in mr.p_regular_partitions(3, 2)] == [(3,), (2, 1)]
    assert mr.Partition((2, 2)).is_p_regular(3)
    assert not mr.Partition((2, 2)).is_p_regular(2)
    assert mr.Partition((3, 1)).conjugate().parts == (2, 1, 1)


def test_epsilon_lambda_full_row_is_trivial_module():
    for n, p in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        M = mr.epsilon_lambda_module(mr.Partition((n,)), n, p)
        assert M.dim == 1
        G = M.group
        assert all(np.array_equal(M.gen_mats[g], np.eye(1, dtype=np.int64)) for g in G.generators)


def test_epsilon_lambda_matches_meataxe_simples():
    for n, p in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        sims = mr.simple_modules(mr.FiniteGroup.symmetric(n), p).simples
        hit_counts = [0] * len(sims)
        for lam in mr.p_regular_partitions(n, p):
            M = mr.epsilon_lambda_module(lam, n, p)
            hits = [i for i, s in enumerate(sims) if mr.iso_modules(s, M)]
            assert len(hits) == 1
            hit_counts[hits[0]] += 1
        assert hit_counts == [1] * len(sims)


def test_epsilon_lambda_rcr_variant_vanishes_for_one_row():
    # the plain row*column*row product is zero mod 2 already for (2)
    elt = mr.epsilon_lambda(mr.Partition((2,)), 2, 2, variant="rcr")
    assert elt == {}
    with pytest.raises(ValueError):
        mr.right_ideal_module(elt, 2, 2)


def test_epsilon_lambda_tableau_choice_is_isomorphic():
    # conjugating the canonical tableau by any permutation gives an isomorphic ideal
    lam = mr.Partition((2, 1))
    base = mr.epsilon_lambda_module(lam, 3, 2)
    T = [[1, 2], [0]]  # a different standard-ish filling
    R = mr.row_symmetrizer(T, 3, 2)
    C = mr.column_symmetrizer(T, 3, 2)
    elt = mr.algebra_mul(mr.algebra_mul(C, R, 2), C, 2)
    other = mr.right_ideal_module(elt, 3, 2)
    assert mr.iso_modules(base, other)


def test_tensor_symmetrizer_image_exterior_square():
    img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(mr.Partition((2,)), 2, 2), 2, 2)
    assert [img.dim(d) for d in range(5)] == [0, 0, 1, 3, 6]
    # oracle: brute-force rank of the symmetrizer on the 4-dim tensor square
    m = mr.right_algebra_matrix(mr.epsilon_lambda(mr.Partition((2,)), 2, 2), 2, 2, 2)
    assert len(rref(m.T, 2)[1]) == 1


def test_tensor_symmetrizer_functoriality():
    img = mr.TensorSymmetrizerImage(mr.epsilon_lambda(mr.Partition((2, 1)), 3, 2), 3, 2)
    a = LinearMap.from_array([[1, 1], [0, 1]], 2)
    b = LinearMap.from_array([[1, 0], [1, 1]], 2)
    lhs = (img.mat(a) @ img.mat(b)) % 2
    assert np.array_equal(lhs, img.mat(a @ b))


def test_spin_and_submodule(S3):
    M = mr.regular_module(S3, 2)
    ones = np.ones((1, 6), dtype=np.int64)
    sp = mr.spin(M.generator_matrices(), ones, 2)
    assert sp.shape[0] == 1  # the all-ones vector spans a trivial submodule
    sub = mr.submodule(M, sp)
    assert sub.dim == 1 and sub.validate()
    quot = mr.quotient_module(M, sp)
    assert quot.dim == 5 and quot.validate()


def _spin_oracle(ops, vectors, p, transpose=False):
    """Round-by-round spin: the whole basis times every operator until no growth."""
    mats = [m.T % p if transpose else m for m in ops]
    basis, pivots = rref(np.atleast_2d(np.asarray(vectors, dtype=np.int64)), p)
    basis = basis[: len(pivots)]
    while basis.shape[0]:
        images = [(basis @ m.T) % p for m in mats]
        new_basis, piv = rref(np.concatenate([basis] + images, axis=0), p)
        new_basis = new_basis[: len(piv)]
        if new_basis.shape[0] == basis.shape[0]:
            break
        basis = new_basis
    return basis


def test_spin_matches_round_by_round_oracle():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        S3, S4 = mr.FiniteGroup.symmetric(3), mr.FiniteGroup.symmetric(4)
        mods = [mr.regular_module(S3, p), _permutation_module(S4, p)] + mr.simple_modules(S4, p).simples
        proper = 0
        for M in mods:
            ops = M.generator_matrices()
            starts = [np.zeros(M.dim, dtype=np.int64), np.ones(M.dim, dtype=np.int64)]
            starts += [rng.integers(0, p, size=(int(rng.integers(1, 3)), M.dim)) for _ in range(6)]
            starts += list(np.eye(M.dim, dtype=np.int64))
            for v in starts:
                for transpose in (False, True):
                    got = mr.spin(ops, v, p, transpose=transpose)
                    assert np.array_equal(got, _spin_oracle(ops, v, p, transpose=transpose)), (M.name, p)
                    proper += 0 < got.shape[0] < M.dim
        assert proper >= 4


def test_group_budget():
    with pytest.raises(ValueError):
        mr.simple_modules(mr.FiniteGroup.symmetric(3), 2, budget=2)


def test_epsilon_lambda_tensor_verified_properties():
    # both defining properties are checked internally: no lower-degree
    # subfunctor, and the n-fold difference is the simple ideal
    for parts, n, p in [((1,), 1, 2), ((2,), 2, 2), ((2, 1), 3, 2), ((2,), 2, 3)]:
        img = mr.epsilon_lambda_tensor(mr.Partition(parts), n, p)
        assert img.dim(0) == 0 or n == 0
    assert mr.epsilon_lambda_tensor(mr.Partition((1,)), 1, 2).dim(3) == 3


def test_linearmap_rref_wrapper():
    m = LinearMap.from_array([[1, 1], [1, 1]], 2)
    r, piv = m.rref()
    assert r.arr.tolist() == [[1, 1], [0, 0]] and piv == [0]
    z = LinearMap.zero(2, 2, 2)
    assert z.rref() == (z, [])


def test_module_json_roundtrip(S3):
    rep = mr.simple_modules(S3, 2)
    two = next(m for m in rep.simples if m.dim == 2)
    doc = mr.module_to_json(two)
    back = mr.module_from_json(doc)
    assert back.validate()
    assert back.dim == 2
    # same action on the relabeled group
    for g in two.group.generators:
        assert np.array_equal(back.gen_mats[g], two.gen_mats[g])


def test_iso_modules_trivial_powers_exact():
    # Hom(T^k, T^k) has dimension k^2, past what a partial scan covers
    S2 = mr.FiniteGroup.symmetric(2)
    for k in range(1, 5):
        Tk = mr.GroupModule(S2, 2, k, {g: np.eye(k, dtype=np.int64) for g in S2.generators})
        assert mr.iso_modules(Tk, Tk)
    T3 = mr.GroupModule(S2, 2, 3, {g: np.eye(3, dtype=np.int64) for g in S2.generators})
    swap = mr.GroupModule(S2, 2, 3, {g: np.eye(3, dtype=np.int64)[[1, 0, 2]] for g in S2.generators})
    assert not mr.iso_modules(T3, swap)
    # too many candidates to rule out: undecided, never a silent False
    T5 = mr.GroupModule(S2, 2, 5, {g: np.eye(5, dtype=np.int64) for g in S2.generators})
    other = mr.GroupModule(S2, 2, 5, {g: np.eye(5, dtype=np.int64)[[1, 0, 2, 3, 4]] for g in S2.generators})
    with pytest.raises(BudgetExceeded):
        mr.iso_modules(T5, other)


def _permutation_module(G, p):
    n = len(G.labels[0])
    gens = {g: np.eye(n, dtype=np.int64)[:, list(G.labels[g])] for g in G.generators}
    return mr.GroupModule(G, p, n, gens, name="perm")


def test_find_invariant_subspace_against_brute_force():
    # None exactly when every nonzero vector generates the whole module, the
    # submodule of v being the span of its images under all group elements
    for n in (3, 4):
        G = mr.FiniteGroup.symmetric(n)
        for p in (2, 3):
            mods = mr.simple_modules(G, p).simples + [_permutation_module(G, p)]
            if n == 3:
                mods.append(mr.regular_module(G, p))
            for M in mods:
                assert M.validate()
                els = [M.element_matrix(i) for i in range(len(G))]
                full = all(
                    len(rref(np.stack([(e @ v) % p for e in els]), p)[1]) == M.dim
                    for v in itertools.islice(enumerate_vectors(p, M.dim), 1, None)
                )
                for seed in (0, 1, 2):
                    sub = mr.find_invariant_subspace(M.generator_matrices(), p, seed=seed, pool=els)
                    assert (sub is None) == full
                    if sub is not None:
                        assert 0 < sub.shape[0] < M.dim
                        assert mr.submodule(M, sub).validate()
