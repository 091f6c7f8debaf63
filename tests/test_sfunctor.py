"""Set-functor layer: validation, kernel calculus, noetherianity, box-sums."""

import pytest

from functorlab.gf import LinearMap, Subspace, enumerate_maps, kernel_space
from functorlab import sfunctor as sf


@pytest.fixture(scope="module")
def SU2():
    """Representable on U = F_2^2 with cap 3."""
    return sf.RepresentableFunctor(2, 2, 3)


@pytest.fixture(scope="module")
def crafted():
    return sf.kernel_mismatch_example()


def elem_of(S, mat):
    lm = LinearMap.from_array(mat, S.p)
    S._table(lm.cols)
    return sf.SElement(lm.cols, S._index[lm.cols][lm.data])


def test_validate_representable(SU2):
    assert sf.validate(SU2).ok


def test_validate_detects_corruption():
    S = sf.RepresentableFunctor(2, 1, 2)
    doc = sf.to_json_dict(S)
    bad_key = next(
        k
        for k, v in doc["action"].items()
        if k.startswith("1x2") and len(v) == 2 and v[0] != v[1]
    )
    doc["action"][bad_key] = list(reversed(doc["action"][bad_key]))
    T = sf.from_json_dict(doc)
    rep = sf.validate(T)
    assert not rep.ok and rep.witness is not None


def test_validate_orbit_functor():
    gens = [LinearMap.from_array([[0, 1], [1, 0]], 2), LinearMap.from_array([[1, 1], [0, 1]], 2)]
    O = sf.OrbitFunctor(2, 2, gens, 2)
    assert sf.validate(O).ok


def test_kernel_of_regular_element(SU2):
    s = elem_of(SU2, [[1, 0], [0, 1]])
    assert sf.kernel_of(SU2, s).dim == 0


def test_kernel_of_zero_element(SU2):
    s = elem_of(SU2, [[0, 0], [0, 0]])
    assert sf.kernel_of(SU2, s) == Subspace.full(2, 2)


def test_kernel_of_rank_one(SU2):
    s = elem_of(SU2, [[1, 0], [0, 0]])
    assert sf.kernel_of(SU2, s).basis_arr.tolist() == [[0, 1]]


def test_kernel_matches_matrix_kernel_everywhere(SU2):
    # dual route: functor-level kernels vs plain matrix kernels
    for d in range(SU2.cap + 1):
        for s in SU2.elements(d):
            assert sf.kernel_of(SU2, s) == kernel_space(SU2.element_map(s))


def test_tilde_regular_is_identity(SU2):
    s = elem_of(SU2, [[1, 0], [0, 1]])
    assert sf.tilde(SU2, s) == s


def test_tilde_zero_elements(SU2):
    s = elem_of(SU2, [[0, 0], [0, 0]])
    t = sf.tilde(SU2, s)
    assert t.dim == 0 and SU2.size(0) == 1


def test_tilde_rank_one(SU2):
    s = elem_of(SU2, [[1, 0], [0, 0]])
    t = sf.tilde(SU2, s)
    assert t.dim == 1
    assert SU2.element_map(t).arr.tolist() == [[1], [0]]


def test_tilde_roundtrip_kernel(SU2):
    # pulling the reduction back along the canonical projection recovers s,
    # and the projection kernel is exactly ker(s)
    from functorlab.gf import proj_with_kernel

    for s in SU2.elements(2):
        u = sf.kernel_of(SU2, s)
        t = sf.tilde(SU2, s)
        projm, _ = proj_with_kernel(u)
        assert SU2.act(projm, t) == s


def test_regular_sets(SU2):
    assert len(sf.regular_set(SU2, 0)) == 1
    assert len(sf.regular_set(SU2, 1)) == 3
    assert len(sf.regular_set(SU2, 3)) == 0


def test_weak_noetherian_representable(SU2):
    assert sf.check_weak_noetherian(SU2).ok


def test_weak_noetherian_crafted_counterexample(crafted):
    assert sf.validate(crafted).ok, "the crafted table must still be a functor"
    rep = sf.check_weak_noetherian(crafted)
    assert not rep.ok
    alpha, s, lhs, rhs = rep.witness
    assert sf.kernel_of(crafted, crafted.act(alpha, s)) == lhs
    from functorlab.gf import preimage

    assert preimage(alpha, sf.kernel_of(crafted, s)) == rhs
    assert lhs != rhs


def test_weak_noetherian_cap_zero():
    S = sf.RepresentableFunctor(2, 1, 0)
    assert sf.check_weak_noetherian(S).ok


def test_noetherian_report(SU2):
    rep = sf.check_noetherian(SU2)
    assert rep.regular_counts == [1, 3, 6, 0]
    assert rep.last_regular_dim == 2
    assert rep.vanishes_before_cap


def test_noetherian_constant():
    S = sf.RepresentableFunctor(2, 0, 3)  # S(W) = Hom(W, 0) is a point
    rep = sf.check_noetherian(S)
    assert rep.regular_counts == [1, 0, 0, 0]


def test_noetherian_subspace_functor_not_certified():
    S = sf.SubspaceFunctor(2, 3)
    assert sf.check_weak_noetherian(S).ok
    rep = sf.check_noetherian(S)
    assert not rep.vanishes_before_cap  # regular elements at every dimension


def test_connected_and_components(SU2):
    assert sf.is_connected(SU2)
    both = sf.disjoint_union(SU2, SU2)
    assert not sf.is_connected(both)
    comps = sf.split_components(both)
    assert len(comps) == 2
    for d in range(both.cap + 1):
        assert sum(c.size(d) for c in comps) == both.size(d)
    for c in comps:
        assert sf.validate(c).ok
        assert [c.size(d) for d in range(4)] == [SU2.size(d) for d in range(4)]


def test_boxplus_trivial_cases(SU2):
    psi = elem_of(SU2, [[1, 0], [0, 1]])
    assert sf.boxplus(SU2, psi, 0) == psi
    eps0 = sf.SElement(0, 0)
    assert sf.boxplus(SU2, eps0, 2) == sf.epsilon(SU2, 2)


def test_boxplus_block_matrix(SU2):
    psi = elem_of(SU2, [[1, 0], [0, 1]])
    res = sf.boxplus(SU2, psi, 1, check_unique=True)
    assert SU2.element_map(res).arr.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_boxplus_associative(SU2):
    for s in SU2.elements(1):
        one_then_one = sf.boxplus(SU2, sf.boxplus(SU2, s, 1), 1)
        two_at_once = sf.boxplus(SU2, s, 2)
        assert one_then_one == two_at_once


def test_boxplus_uniqueness_exhaustive(SU2):
    for w in range(3):
        for psi in SU2.elements(w):
            for v in range(SU2.cap - w + 1):
                sf.boxplus(SU2, psi, v, check_unique=True)


def test_boxplus_uniqueness_fails_on_crafted(crafted):
    with pytest.raises(sf.WeakNoetherianityViolation):
        sf.boxplus(crafted, sf.SElement(1, 0), 1, check_unique=True)


def test_tilde_regular_property_weakly_noetherian(SU2):
    # the regular reduction exists and is regular for every element
    for d in range(SU2.cap + 1):
        for s in SU2.elements(d):
            t = sf.tilde(SU2, s)
            assert sf.is_regular(SU2, t)


def test_json_roundtrip():
    S = sf.RepresentableFunctor(2, 1, 2)
    doc = sf.to_json_dict(S)
    T = sf.from_json_dict(doc)
    assert sf.validate(T).ok
    for d in range(3):
        assert T.size(d) == S.size(d)
    for alpha in enumerate_maps(2, 1, 2):
        for s in S.elements(2):
            assert T.act(alpha, s.index) == S.act(alpha, s)


def test_builtin_spec_constructors():
    S = sf.from_builtin_spec({"type": "representable", "p": 2, "U_dim": 1}, cap=2)
    assert isinstance(S, sf.RepresentableFunctor)
    O = sf.from_builtin_spec(
        {"type": "orbit", "p": 2, "U_dim": 2, "gamma_generators": [[[0, 1], [1, 0]]]}, cap=2
    )
    assert sf.validate(O).ok


def test_weak_noetherian_partial_certificate(SU2):
    # a tight budget shrinks the checked window; the certificate says so
    rep = sf.check_weak_noetherian(SU2, budget=70)
    assert rep.ok and rep.partial and rep.window == 2
    full = sf.check_weak_noetherian(SU2)
    assert full.ok and not full.partial and full.window == 3


def test_json_roundtrip_p11():
    # entries of 10 and above need the separator-joined map keys
    S = sf.RepresentableFunctor(11, 1, 1)
    doc = sf.to_json_dict(S)
    T = sf.from_json_dict(doc)
    assert sf.to_json_dict(T) == doc
    alpha = LinearMap.from_array([[10]], 11)
    for s in S.elements(1):
        assert T.act(alpha, s) == S.act(alpha, s)
