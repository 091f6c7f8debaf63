"""Classification harness: quotient equivalence instances and simple functors."""

from collections import Counter

import numpy as np
import pytest

from functorlab import elcat as ec
from functorlab import modrep as mr
from functorlab import sfunctor as sf
from functorlab import simples as sp
from functorlab import vfunctor as vf
from functorlab.gf import SCAN_BUDGET, nonzero_combinations, rref


# -- the routes certify_simple took before condensation, kept as oracles -------


def _scan_oracle(F):
    """Exhaustive: F is simple iff every nonzero vector of every value space
    generates F.  Returns (bool, (object, vector, generated subfunctor))."""
    for i in F.object_indices():
        for x in nonzero_combinations(np.eye(F.dim(i), dtype=np.int64), F.p):
            gen = vf.generated_subfunctor(F, i, x)
            if gen.total_dim() != F.total_dim():
                return False, (i, x, gen)
    return True, None


def _module_ops(F):
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


def _graded_pieces(F, offs, basis):
    bases = {}
    for i in F.object_indices():
        block = basis[:, offs[i]: offs[i] + F.dim(i)]
        r, piv = rref(block, F.p)
        bases[i] = r[: len(piv)]
    return vf.SubFunctor(F, bases)


class _Words:
    """The words of length one and two in ops, formed when drawn: the
    splitting engine's pool for the block-matrix route."""

    def __init__(self, ops, p):
        self.ops, self.p = ops, p

    def __len__(self):
        return len(self.ops) * (len(self.ops) + 1)

    def __getitem__(self, k):
        n = len(self.ops)
        if k < n:
            return self.ops[k]
        a, b = divmod(k - n, n)
        return (self.ops[a] @ self.ops[b]) % self.p


def _block_meataxe_oracle(F, seed=0):
    """The splitting engine on the sum of all value spaces."""
    ops, offs = _module_ops(F)
    sub = mr.find_invariant_subspace(ops, F.p, _Words(ops, F.p), seed=seed)
    return (True, None) if sub is None else (False, _graded_pieces(F, offs, sub))


def _old_certify(F, seed=0):
    """The old certify_simple: a scan when every value space has at most
    SCAN_BUDGET vectors, the block-matrix MeatAxe otherwise."""
    if F.is_zero():
        return False, "zero functor"
    if F.p ** max(F.dim(i) for i in F.object_indices()) <= SCAN_BUDGET:
        return _scan_oracle(F)
    return _block_meataxe_oracle(F, seed)


def _assert_witness(F, witness):
    """A failure's witness is a proper, nonzero, stable subfunctor."""
    assert isinstance(witness, vf.SubFunctor) and witness.parent is F
    assert witness.is_stable()
    assert 0 < witness.total_dim() < F.total_dim()


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
    _assert_witness(TM, witness)
    # F(o) at o = (0, 1) is one-dimensional and lies in the lower filtration,
    # so the subfunctor it generates is the witness, as the scan finds too
    assert lower.contains(witness)
    ok_scan, (_, _, gen) = _scan_oracle(TM)
    assert not ok_scan and lower.contains(gen)


def test_certify_simple_direct_sum_fails(hom_simples):
    d = hom_simples[0]
    F2 = vf.direct_sum(d.realization, d.realization)
    ok, witness = sp.certify_simple(F2)
    assert not ok
    _assert_witness(F2, witness)


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
    # condensation, the exhaustive scan and the block-matrix MeatAxe agree
    for d in hom_simples:
        F = d.realization
        assert sp.certify_simple(F) == (True, None)
        assert _scan_oracle(F) == (True, None) and _block_meataxe_oracle(F) == (True, None)
    # sums whose largest value space has 2, 2^11 and 2^12 vectors: the scan
    # covers all three, and on the last two the MeatAxe spins kernels of 11
    # and 12 dimensions
    d0, d1, d2 = (d.realization for d in hom_simples[:3])
    for F in (vf.direct_sum(d0, d0), vf.direct_sum(vf.direct_sum(d2, d1), d0), vf.direct_sum(d2, d2)):
        assert not _scan_oracle(F)[0]
        for seed in range(3):
            ok_alg, sub = _block_meataxe_oracle(F, seed)
            assert not ok_alg
            _assert_witness(F, sub)
            ok, witness = sp.certify_simple(F, seed=seed)
            assert not ok
            _assert_witness(F, witness)


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
    gens = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 1]])]
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
    O = sf.OrbitFunctor(3, 1, [np.array([[2]])], 3)
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


# -- condensation at one object against the old routes --------------------------


@pytest.mark.parametrize("p,u_dim,cap", [(2, 0, 3), (2, 1, 3), (3, 0, 2), (2, 2, 3)])
def test_end_generators_generate_end(p, u_dim, cap):
    # condition (a) is exact only if these generate End(o) as a monoid
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, cap))
    for o in sk.objects:
        gens = sp._end_generators(sk, o.index)
        reached = {sk.identity(o.index).tobytes()}
        frontier = [sk.identity(o.index)]
        while frontier:
            new = [g @ m % sk.p for m in frontier for g in gens]
            frontier = [m for m in new if m.tobytes() not in reached]
            reached |= {m.tobytes() for m in frontier}
        assert reached == {m.tobytes() for m in sk.hom(o.index, o.index)}


def _condensation_object(F):
    objs = F.sk.objects
    return min((i for i in F.object_indices() if F.dim(i)), key=lambda i: (F.dim(i), objs[i].dim))


def _failed_condition(F, witness):
    """Which of (a), (b), (c) a witness answers, read from its value at o."""
    k = witness.dim(_condensation_object(F))
    return "c" if k == 0 else "b" if k == F.dim(_condensation_object(F)) else "a"


def _functor_family(sk, n_max, window):
    """T^n lifts with their p_k pieces and quotients, constants, I[o] and
    P[o] at window 2, the classification outputs and their pairwise sums, and
    a quotient of each by a random subfunctor."""
    rng = np.random.default_rng(0)
    out = []
    for n in (1, 2, 3):
        T = vf.forgetful_lift(sk, vf.TensorPower(n, sk.p), window)
        out.append(T)
        for k in range(n):
            try:
                lower = vf.p_n(T, k)
            except vf.WindowExceeded:
                continue
            out += [lower.to_functor(), vf.quotient_functor(T, lower)]
    out += [vf.constant_functor(sk, dim, window) for dim in (1, 2)]
    for o in sk.objects:
        if o.dim <= 2:
            out += [vf.injective_cogen(sk, o.index, window=2), vf.projective_gen(sk, o.index, window=2)]
    simples = [d.realization for d in sp.enumerate_simples(sk, n_max, seed=0)]
    out += simples
    out += [vf.direct_sum(a, b) for k, a in enumerate(simples) for b in simples[k:]]
    out += [vf.quotient_functor(F, vf.random_subfunctor(F, rng)) for F in list(out) if not F.is_zero()]
    return out


@pytest.mark.parametrize(
    "p,u_dim,cap,n_max,window",
    [(2, 0, 4, 3, 3), (2, 1, 4, 2, 3), (2, 2, 3, 1, 3), (3, 0, 3, 2, 3), (3, 1, 3, 1, 3), (3, 2, 2, 0, 2)],
)
def test_certify_simple_matches_old_routes(monkeypatch, p, u_dim, cap, n_max, window):
    # A failure carries a proper, nonzero, stable witness, which proves it on
    # its own; a success must be confirmed by the old route.  The old route
    # may give up (SplittingFailure) on large kernels, so it is asked only
    # where the new answer needs it or it can decide.  With SCAN_BUDGET forced
    # to 1, condition (a) goes through the splitting engine for every F(o),
    # and its verdict must not change.
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u_dim, cap))
    family = _functor_family(sk, n_max, window)
    verdicts, failed = [], Counter()
    for F in family:
        ok, witness = sp.certify_simple(F)
        verdicts.append(ok)
        if not ok:
            if F.is_zero():
                assert witness == "zero functor"
                continue
            _assert_witness(F, witness)
            failed[_failed_condition(F, witness)] += 1
        try:
            assert _old_certify(F)[0] == ok
        except mr.SplittingFailure:
            assert not ok
    monkeypatch.setattr(sp, "SCAN_BUDGET", 1)
    for F, ok in zip(family, verdicts):
        ok_engine, witness = sp.certify_simple(F)
        assert ok_engine == ok
        if not ok and not F.is_zero():
            _assert_witness(F, witness)
    assert 0 < sum(verdicts) < len(family)
    assert failed["a"] and failed["b"]
    if u_dim:
        assert failed["c"]
