"""Set-functor layer: validation, kernel calculus, noetherianity, box-sums."""

import dataclasses
import functools

import numpy as np
import pytest

from functorlab.gf import (
    DEFAULT_MAP_BUDGET,
    Subspace,
    count_maps,
    elementary_invertibles,
    enumerate_maps,
    enumerate_subspaces,
    kernel_space,
    preimage,
    proj_with_kernel,
    rank,
)
from functorlab import elcat as ec, gf, sfunctor as sf


@pytest.fixture(scope="module")
def SU2():
    """Representable on U = F_2^2 with cap 3."""
    return sf.RepresentableFunctor(2, 2, 3)


@pytest.fixture(scope="module")
def crafted():
    return sf.kernel_mismatch_example()


def all_elements(S):
    """Every element of S, dimension by dimension."""
    for d in range(S.cap + 1):
        yield from S.elements(d)


def plain(report):
    """The report with each matrix of its witness as (shape, entries), so
    that reports compare with ==."""
    if report.witness is None:
        return report
    witness = tuple((x.shape, x.tolist()) if isinstance(x, np.ndarray) else x for x in report.witness)
    return dataclasses.replace(report, witness=witness)


def elem_of(S, mat):
    return next(e for e in S.elements(np.shape(mat)[1]) if np.array_equal(S.element_map(e), mat))


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
    gens = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 1]])]
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
            assert sf.kernel_of(SU2, s) == kernel_space(SU2.element_map(s), 2)


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
    assert SU2.element_map(t).tolist() == [[1], [0]]


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
    assert SU2.element_map(res).tolist() == [[1, 0, 0], [0, 1, 0]]


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
            assert sf.kernel_of(SU2, t).dim == 0


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
    alpha = np.array([[10]])
    for s in S.elements(1):
        assert T.act(alpha, s) == S.act(alpha, s)


# ---------------------------------------------------------------------------
# line idempotents and line tables against the per-element searches they
# replaced, kept here as oracles


def oracle_kernel_of(S, s):
    """Try every subspace u of F^d and scan S(d - dim u) for a preimage of s."""
    candidates = []
    for u in enumerate_subspaces(S.p, s.dim):
        projm, _ = proj_with_kernel(u)
        if any(S.act(projm, t) == s for t in S.elements(s.dim - u.dim)):
            candidates.append(u)
    best = max(candidates, key=lambda u: u.dim)
    for u in candidates:
        if not best.contains(u):
            raise sf.InvalidFunctorData(
                f"kernel ambiguity at {s}: incomparable maximal factorizations {best} and {u}"
            )
    return best


def oracle_tilde(S, s):
    u = oracle_kernel_of(S, s)
    projm, _ = proj_with_kernel(u)
    matches = [t for t in S.elements(s.dim - u.dim) if S.act(projm, t) == s]
    if len(matches) != 1:
        raise sf.InvalidFunctorData(f"expected exactly one reduction of {s}, found {len(matches)}")
    t = matches[0]
    if oracle_kernel_of(S, t).dim != 0:
        raise sf.WeakNoetherianityViolation(f"reduction of {s} is not regular")
    return t


def oracle_check_weak_noetherian(S, budget=DEFAULT_MAP_BUDGET):
    """Element by element: every Hom set enumerated and every preimage computed anew."""
    kernel = functools.cache(lambda s: oracle_kernel_of(S, s))
    window = S.cap
    while window > 0 and any(
        count_maps(S.p, n, m) > budget for n in range(window + 1) for m in range(window + 1)
    ):
        window -= 1
    checked = 0
    for m in range(window + 1):
        for s in S.elements(m):
            ker_s = kernel(s)
            for n in range(window + 1):
                for alpha in enumerate_maps(S.p, n, m, budget):
                    checked += 1
                    lhs = kernel(S.act(alpha, s))
                    rhs = preimage(alpha, ker_s)
                    if lhs != rhs:
                        return sf.WeakNoetherianReport(
                            False, checked, window, (alpha, s, lhs, rhs), window < S.cap
                        )
    return sf.WeakNoetherianReport(True, checked, window, None, window < S.cap)


def outcome(f, *args):
    try:
        return f(*args)
    except (sf.InvalidFunctorData, sf.WeakNoetherianityViolation) as err:
        return type(err), str(err)


def ambiguous_table():
    """Not a functor: S = {*}, {a}, {x, y} on dimensions <= 2, where x is the
    pullback of a along the projections by two different lines of F_2^2 but
    not of * along the zero map, so x has two incomparable maximal
    factorizations.  Only the projections a factorization search uses are
    set."""
    p = 2
    action = {}

    def pull(u, tab):
        projm, _ = proj_with_kernel(u)
        action[(projm.shape[1], projm.shape[0], projm.astype(np.uint8).tobytes())] = tab

    for d, size in enumerate([1, 1, 2]):
        pull(Subspace.zero(d, p), tuple(range(size)))
    pull(Subspace.full(1, p), (0,))
    _, line1, line2, line3, plane = enumerate_subspaces(p, 2)
    pull(line1, (0,))
    pull(line2, (0,))
    pull(line3, (1,))
    pull(plane, (1,))
    return sf.TableFunctor(p, 2, [1, 1, 2], action, name="ambiguous")


def orbit_u2():
    return sf.OrbitFunctor(2, 2, [np.array([[0, 1], [1, 0]])], 3)


def union():
    return sf.disjoint_union(sf.RepresentableFunctor(2, 1, 3), orbit_u2())


KERNEL_CASES = {
    "representable-u0-cap4": lambda: sf.RepresentableFunctor(2, 0, 4),
    "representable-u1-cap4": lambda: sf.RepresentableFunctor(2, 1, 4),
    "representable-u2-cap3": lambda: sf.RepresentableFunctor(2, 2, 3),
    "representable-p3-u1-cap2": lambda: sf.RepresentableFunctor(3, 1, 2),
    "representable-p3-u1-cap3": lambda: sf.RepresentableFunctor(3, 1, 3),
    "orbit": orbit_u2,
    "subspaces-cap3": lambda: sf.SubspaceFunctor(2, 3),
    "union": union,
    "union-component-0": lambda: sf.split_components(union())[0],
    "union-component-1": lambda: sf.split_components(union())[1],
    "kernel-mismatch": sf.kernel_mismatch_example,
}


def oracle_regular_set(S, d):
    return [s for s in S.elements(d) if oracle_kernel_of(S, s).dim == 0]


def as_table(S):
    return sf.from_json_dict(sf.to_json_dict(S), name=f"table({S.name})")


def assert_kernels_match_oracle(S, T):
    """The kernel calculus on S against the element search on T, a second
    copy of S; every S ends up on the line-idempotent route."""
    for d in range(S.cap + 1):
        assert outcome(sf.regular_set, S, d) == outcome(oracle_regular_set, T, d), d
    for s in all_elements(S):
        assert outcome(sf.kernel_of, S, s) == outcome(oracle_kernel_of, T, s), s
        assert outcome(sf.tilde, S, s) == outcome(oracle_tilde, T, s), s
    assert S.lawful and sorted(S._fixed_lines) == list(range(S.cap + 1))


def assert_calculus_refuses_every_element(make, reason):
    """On a table that is not a functor the kernel calculus answers on no
    element, also where the element search finds an answer."""
    S, T = make(), make()
    searched = [outcome(oracle_kernel_of, T, s) for s in all_elements(T)]
    assert any(isinstance(u, Subspace) for u in searched)
    calls = [(sf.regular_set, d) for d in range(S.cap + 1)]
    calls += [(f, s) for s in all_elements(S) for f in (sf.kernel_of, sf.tilde)]
    for f, arg in calls:
        with pytest.raises(sf.InvalidFunctorData) as err:
            f(S, arg)
        assert str(err.value).startswith(reason), (f.__name__, arg)


@pytest.mark.parametrize("case", [*KERNEL_CASES, "ambiguous"])
def test_kernel_table_matches_element_search(case):
    if case in NON_FUNCTOR_CASES:
        assert_calculus_refuses_every_element(*NON_FUNCTOR_CASES[case])
    else:
        assert_kernels_match_oracle(KERNEL_CASES[case](), KERNEL_CASES[case]())


def test_ambiguous_factorization_raises_on_that_element_only():
    # the element search finds the two incomparable maximal factorizations of
    # x and answers on every other element of the ambiguous table
    S = ambiguous_table()
    x, y = sf.SElement(2, 0), sf.SElement(2, 1)
    assert oracle_kernel_of(S, y) == Subspace.full(2, 2)
    assert oracle_tilde(S, y) == sf.SElement(0, 0)
    with pytest.raises(sf.InvalidFunctorData, match="kernel ambiguity"):
        oracle_kernel_of(S, x)
    with pytest.raises(sf.InvalidFunctorData, match="kernel ambiguity"):
        oracle_tilde(S, x)
    for s in all_elements(S):
        if s != x:
            oracle_tilde(S, s)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_table_kernels_match_element_search(case):
    # the JSON table of each case passes the gate and reads line idempotents
    T = as_table(KERNEL_CASES[case]())
    assert not T.lawful
    assert_kernels_match_oracle(T, KERNEL_CASES[case]())


def test_out_of_range_pullback_fails_loudly():
    T = sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 1, 1)))
    T.action[(1, 0, b"")] = (-1,)  # the zero map F^1 -> F^0 pulls back to index -1
    with pytest.raises(sf.InvalidFunctorData, match="table is not a functor: pulling element 0 of S"):
        sf.kernel_of(T, sf.SElement(1, 0))


def broken_table():
    """Not a functor: S(0) = {*}, S(1) = {x, y} with y the pullback of * along
    F^1 -> 0, and the zero endomorphism of F^1 fixing x.  Both * and x would
    be regular, and the zero map a morphism x -> x that is not injective.  In
    a functor no such morphism exists: it factors through a projection, which
    puts its kernel into the kernel of its source."""
    action = {
        (0, 0, b""): (0,),
        (1, 0, b""): (1,),
        (0, 1, b""): (0, 0),
        (1, 1, b"\x00"): (0, 1),
        (1, 1, b"\x01"): (0, 1),
    }
    return sf.TableFunctor(2, 1, [1, 2], action, name="broken")


def swapped_identity_table():
    """Not a functor: the u-dim 1, cap 3 representable table whose pullback
    along the identity of F^1 swaps the two elements."""
    doc = sf.to_json_dict(sf.RepresentableFunctor(2, 1, 3))
    doc["action"]["1x1:1"].reverse()
    return sf.from_json_dict(doc)


def corrupted_table():
    """Not a functor: one pullback table along a map F^2 -> F^1 reversed."""
    doc = sf.to_json_dict(sf.RepresentableFunctor(2, 1, 2))
    doc["action"]["1x2:0.1"].reverse()
    return sf.from_json_dict(doc)


NON_FUNCTOR_CASES = {
    "ambiguous": (ambiguous_table, "the table has no pullback along the map 1x0:"),
    "broken": (
        broken_table,
        "broken is not a functor: pulling element 0 of S(1) back along g = 1x0: and then along beta = 0x1:",
    ),
    "swapped-identity": (
        swapped_identity_table,
        "table is not a functor: the identity of F^1 moves element 0 of S(1)",
    ),
    "corrupted": (corrupted_table, "table is not a functor: pulling element 0 of S(0) back along g = 0x1:"),
}

CALCULUS = {
    "kernel_of": lambda S: sf.kernel_of(S, sf.SElement(S.cap, 0)),
    "tilde": lambda S: sf.tilde(S, sf.SElement(S.cap, 0)),
    "regular_set": lambda S: sf.regular_set(S, 0),
    "check_weak_noetherian": sf.check_weak_noetherian,
    "build_rector_skeleton": ec.build_rector_skeleton,
}


@pytest.mark.parametrize("case", NON_FUNCTOR_CASES)
def test_calculus_refuses_non_functor_tables(case):
    # every entry to the kernel calculus validates first and refuses, on
    # every call, instead of answering about data that is not a functor
    make, reason = NON_FUNCTOR_CASES[case]
    S = make()
    for name, run in CALCULUS.items():
        with pytest.raises(sf.InvalidFunctorData) as err:
            run(S)
        assert str(err.value).startswith(reason), name
        assert not S.lawful and not S._fixed_lines and not S._kernel_cache, name
    if case != "ambiguous":
        assert not sf.validate(S).ok


def test_table_validated_once_across_the_calculus(monkeypatch):
    validated = []
    real = sf.validate
    monkeypatch.setattr(sf, "validate", lambda S: validated.append(S) or real(S))
    T = as_table(sf.RepresentableFunctor(2, 1, 3))
    s = sf.SElement(2, 1)
    sf.kernel_of(T, s)
    sf.tilde(T, s)
    sf.regular_set(T, 3)
    assert sf.check_weak_noetherian(T).ok
    sf.check_noetherian(T)
    R = ec.build_rector_skeleton(T)
    assert ec.check_injectivity(T, R) == (True, None)
    ec.Skeleton(T)
    assert validated == [T] and T.lawful
    # a lawful functor, and a union of lawful ones, is never validated
    for S in (sf.RepresentableFunctor(2, 1, 3), sf.disjoint_union(T, T)):
        sf.regular_set(S, 3)
        sf.check_weak_noetherian(S)
    assert validated == [T]


def as_lists(action):
    """The stored index arrays of a TableFunctor as the lists of ints its
    constructor reads."""
    return {key: tab.tolist() for key, tab in action.items()}


class LawfulTable(sf.TableFunctor):
    """A table declared lawful, so that the gate lets it in unvalidated; only
    honest for tables that pass validate."""

    lawful = True


def lawful_kernel_mismatch():
    K = sf.kernel_mismatch_example()
    return LawfulTable(K.p, K.cap, K.sizes, as_lists(K.action), name=K.name)


def table_roundtrip():
    return sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 1, 3)))


WEAK_CASES = {
    "su2-cap3": (lambda: sf.RepresentableFunctor(2, 2, 3), DEFAULT_MAP_BUDGET),
    "kernel-mismatch": (sf.kernel_mismatch_example, DEFAULT_MAP_BUDGET),
    "kernel-mismatch-lawful": (lawful_kernel_mismatch, DEFAULT_MAP_BUDGET),
    "subspaces-cap3": (lambda: sf.SubspaceFunctor(2, 3), DEFAULT_MAP_BUDGET),
    "representable-small-budget": (lambda: sf.RepresentableFunctor(2, 1, 3), 70),
    "orbit": (orbit_u2, DEFAULT_MAP_BUDGET),
    "union": (union, DEFAULT_MAP_BUDGET),
    "union-component-0": (lambda: sf.split_components(union())[0], DEFAULT_MAP_BUDGET),
    "union-component-1": (lambda: sf.split_components(union())[1], DEFAULT_MAP_BUDGET),
    "representable-p3-u1-cap2": (lambda: sf.RepresentableFunctor(3, 1, 2), DEFAULT_MAP_BUDGET),
    # lines of F_5^n have four nonzero spanning vectors each
    "representable-p5-u1-cap2": (lambda: sf.RepresentableFunctor(5, 1, 2), DEFAULT_MAP_BUDGET),
    "table-roundtrip": (table_roundtrip, DEFAULT_MAP_BUDGET),
}


@functools.cache
def weak_oracle(case):
    make, budget = WEAK_CASES[case]
    return oracle_check_weak_noetherian(make(), budget)


@pytest.mark.parametrize("case", WEAK_CASES)
def test_weak_noetherian_matches_element_loop(case):
    make, budget = WEAK_CASES[case]
    got = sf.check_weak_noetherian(make(), budget)
    want = weak_oracle(case)
    # dataclass equality: ok, checked, window, witness and partial; the
    # kernel-mismatch table finds its violation on the orbit route and must
    # still report the loop's first witness
    assert plain(got) == plain(want)
    assert got.partial == (case == "representable-small-budget")
    assert got.ok == ("kernel-mismatch" not in case)


@pytest.mark.parametrize("case", WEAK_CASES)
def test_witness_route_matches_element_loop(case):
    # the witness route alone runs the line test at every element, not only
    # at GL-orbit representatives
    make, budget = WEAK_CASES[case]
    want = weak_oracle(case)
    assert plain(sf._weak_noetherian_loop(make(), want.window, budget)) == plain(want)


@pytest.mark.parametrize("case", [case for case in WEAK_CASES if "kernel-mismatch" in case])
def test_weak_noetherian_witness_across_slices(case, monkeypatch):
    # slices of three maps, so the witness route counts its pairs over many
    monkeypatch.setattr(gf, "MAP_SLICE", 3)
    make, budget = WEAK_CASES[case]
    assert plain(sf.check_weak_noetherian(make(), budget)) == plain(weak_oracle(case))


@pytest.mark.parametrize("case", WEAK_CASES)
def test_fixed_lines_are_the_lines_of_the_kernel(case):
    # the lemma the weak noetherianity check rests on: a line lies in ker t
    # exactly when _fixed_lines marks it for t
    make, _ = WEAK_CASES[case]
    S = make()
    for n in range(S.cap + 1):
        lines, fixed = sf._fixed_lines(S, n)
        assert lines.shape == (len(fixed), n)
        for t in S.elements(n):
            ker = sf.kernel_of(S, t)
            assert [ker.contains_vector(v) for v in lines] == fixed[:, t.index].tolist(), t


# the stack routes of the kernel calculus against the per-item routes they
# replaced, kept here unchanged as oracles


def oracle_fixed_lines(S, d):
    """One proj_with_kernel, one matrix product and one pull per line."""
    lines = [u for u in enumerate_subspaces(S.p, d) if u.dim == 1]
    ids = np.arange(S.size(d))
    fixed = np.zeros((len(lines), ids.size), dtype=bool)
    for row, (projm, sect) in zip(fixed, map(proj_with_kernel, lines)):
        row[:] = S._pull((sect @ projm % S.p)[None], slice(None))[0] == ids
    vecs = np.array([u.basis_arr[0] for u in lines], dtype=np.int64).reshape(len(lines), d)
    return vecs, fixed


def oracle_weak_noetherian_on_orbits(S, window):
    """One kernel_of, one projection and one _kernel_mismatches call per
    orbit representative and n."""
    dims = range(window + 1)
    for m in dims:
        subspaces = enumerate_subspaces(S.p, m)
        spans = np.zeros((len(subspaces), m, window), dtype=np.int64)
        for span, w in zip(spans, subspaces):
            span[:, : w.dim] = w.basis_arr.T
        stacks = [spans[[w.dim <= n for w in subspaces], :, :n] for n in dims]
        for s in [sf.SElement(m, int(i)) for i in sf._orbit_representatives(S, m)]:
            proj = proj_with_kernel(sf.kernel_of(S, s))[0]
            if any(sf._kernel_mismatches(S, stack, s.index, proj).size for stack in stacks):
                return False
    return True


def oracle_boxplus(S, psi, extra_dim, check_unique=False):
    """Three act calls, and two act_table fills for check_unique."""
    w, v = psi.dim, extra_dim
    if w + v > S.cap:
        raise ValueError("box-sum exceeds the cap")
    res = S.act(np.eye(w, w + v, dtype=np.int64), psi)
    incl_w = np.eye(w + v, w, dtype=np.int64)
    incl_v = np.eye(w + v, v, -w, dtype=np.int64)
    if S.act(incl_w, res) != psi or S.act(incl_v, res) != sf.epsilon(S, v):
        raise sf.InvalidFunctorData("box-sum restrictions failed")
    if check_unique:
        hits = np.count_nonzero((S.act_table(incl_w) == psi.index) & (S.act_table(incl_v) == sf.epsilon(S, v).index))
        if hits != 1:
            raise sf.WeakNoetherianityViolation(f"box-sum of {psi} (+{v}) is not unique: {hits} candidates")
    return res


STACK_CASES = {
    **{f"representable-p2-u{u}-cap3": (lambda u=u: sf.RepresentableFunctor(2, u, 3)) for u in range(4)},
    **{f"representable-p3-u{u}-cap2": (lambda u=u: sf.RepresentableFunctor(3, u, 2)) for u in range(3)},
    **{f"representable-p5-u{u}-cap2": (lambda u=u: sf.RepresentableFunctor(5, u, 2)) for u in range(2)},
    "orbit-p2": orbit_u2,
    "orbit-p3": lambda: sf.OrbitFunctor(3, 2, [np.array([[0, 1], [1, 0]])], 2),
    "orbit-p5": lambda: sf.OrbitFunctor(5, 1, [np.array([[2]])], 2),
    "subspaces-p2": lambda: sf.SubspaceFunctor(2, 3),
    "subspaces-p3": lambda: sf.SubspaceFunctor(3, 2),
    "subspaces-p5": lambda: sf.SubspaceFunctor(5, 2),
    "table-p2": lambda: as_table(sf.RepresentableFunctor(2, 2, 3)),
    "table-p3": lambda: as_table(sf.RepresentableFunctor(3, 1, 2)),
    "table-p5": lambda: as_table(sf.RepresentableFunctor(5, 1, 2)),
    "union": union,
    "union-p3": lambda: sf.disjoint_union(sf.RepresentableFunctor(3, 1, 2), sf.SubspaceFunctor(3, 2)),
    "union-component-0": lambda: sf.split_components(union())[0],
    "union-component-1": lambda: sf.split_components(union())[1],
    "kernel-mismatch": sf.kernel_mismatch_example,
}


@pytest.mark.parametrize("pairs", [sf.PULL_PAIRS, 5])
@pytest.mark.parametrize("case", STACK_CASES)
def test_fixed_lines_match_per_line_oracle(case, pairs, monkeypatch):
    # at 5 pairs per pull, S(d) of more than 5 elements takes one line per
    # pull and smaller ones several, with a short last slice
    monkeypatch.setattr(sf, "PULL_PAIRS", pairs)
    S, T = STACK_CASES[case](), STACK_CASES[case]()
    for d in range(S.cap + 1):
        lines, fixed = sf._fixed_lines(S, d)
        want_lines, want_fixed = oracle_fixed_lines(T, d)
        assert lines.dtype == want_lines.dtype and np.array_equal(lines, want_lines), d
        assert fixed.dtype == bool and np.array_equal(fixed, want_fixed), d


def test_line_idempotent_is_sect_proj():
    for p in (2, 3, 5):
        for d in range(5):
            lines = [u for u in enumerate_subspaces(p, d) if u.dim == 1]
            idems = sf._line_idempotents(gf.line_vectors(p, d), p)
            assert idems.shape == (len(lines), d, d)
            for e, u in zip(idems, lines):
                projm, sect = proj_with_kernel(u)
                assert np.array_equal(e, sect @ projm % p), (p, u)


@pytest.mark.parametrize("pairs", [sf.PULL_PAIRS, 3])
@pytest.mark.parametrize("case", WEAK_CASES)
def test_orbit_route_matches_per_representative_oracle(case, pairs, monkeypatch):
    # every window; at 3 pairs per pull the representatives come a few at a
    # time, or one at a time against the larger stacks
    monkeypatch.setattr(sf, "PULL_PAIRS", pairs)
    make, _ = WEAK_CASES[case]
    S, T = make(), make()
    verdicts = [sf._weak_noetherian_on_orbits(S, window) for window in range(S.cap + 1)]
    assert verdicts == [oracle_weak_noetherian_on_orbits(T, window) for window in range(T.cap + 1)]
    assert verdicts[-1] == ("kernel-mismatch" not in case)


@pytest.mark.parametrize("case", STACK_CASES)
def test_boxplus_matches_act_oracle(case):
    S, T = STACK_CASES[case](), STACK_CASES[case]()

    def outcome_of(f, *args):
        try:
            return f(*args)
        except (ValueError, sf.InvalidFunctorData, sf.WeakNoetherianityViolation) as err:
            return type(err), str(err)

    for psi in all_elements(S):
        for v in range(S.cap - psi.dim + 2):
            for unique in (False, True):
                assert outcome_of(sf.boxplus, S, psi, v, unique) == outcome_of(oracle_boxplus, T, psi, v, unique)
    # only epsilon's tables, on S(0), are kept
    assert all(rows == 0 for (rows, _), _ in S._table_cache)


@pytest.mark.parametrize("case", WEAK_CASES)
def test_table_weak_noetherian_matches_element_loop(case):
    # the JSON table of each case passes the gate and takes the orbit route
    make, budget = WEAK_CASES[case]
    T = as_table(make())
    assert not T.lawful
    assert plain(sf.check_weak_noetherian(T, budget)) == plain(weak_oracle(case))
    assert T.lawful


def test_line_idempotent_tables_are_not_kept():
    # only the boolean fixed-line matrix stays, one per dimension
    S = sf.RepresentableFunctor(2, 2, 3)
    counts = [len(sf.regular_set(S, d)) for d in range(S.cap + 1)]
    assert counts == [1, 3, 6, 0] and not S._table_cache
    for d in range(S.cap + 1):
        lines, fixed = S._fixed_lines[d]
        assert fixed.dtype == bool and fixed.shape == (len(lines), S.size(d)) == (2**d - 1, 4**d)


def test_lawful_follows_construction():
    # builtins are lawful by construction, and so is what is built from them;
    # a table, or anything built over one, is not until it passes the gate
    assert all(S.lawful for S in (sf.RepresentableFunctor(2, 1, 2), orbit_u2(), sf.SubspaceFunctor(2, 2)))
    assert union().lawful and all(C.lawful for C in sf.split_components(union()))
    table = table_roundtrip()
    mixed = sf.disjoint_union(sf.RepresentableFunctor(2, 1, 3), table)
    assert not table.lawful and not sf.kernel_mismatch_example().lawful
    assert not mixed.lawful and not any(C.lawful for C in sf.split_components(mixed))


@pytest.mark.parametrize("u_dim,checked", [(1, 1_157_359), (2, 18_200_849)])
def test_weak_noetherian_frontier_cap4(u_dim, checked):
    # every pair (alpha, s) at cap 4 is covered; the pair loop took minutes here
    rep = sf.check_weak_noetherian(sf.RepresentableFunctor(2, u_dim, 4))
    assert rep.ok and not rep.partial and rep.window == 4
    assert rep.checked == checked


# ---------------------------------------------------------------------------
# validate on generators against the loop over every composable triple


@functools.cache
def composable_triples(p, cap):
    """For every hom-set of maps beta within the cap: the list of betas and,
    for every alpha composable with them, (alpha, [alpha @ beta for beta in
    betas]).  Computed once per (p, cap) and shared by every functor there;
    equal products share one array."""
    canon = {}
    out = []
    dims = range(cap + 1)
    for n in dims:
        for m in dims:
            betas = list(enumerate_maps(p, n, m))
            alphas = [
                (alpha, [canon.setdefault(((ab := alpha @ beta % p).shape, ab.tobytes()), ab) for beta in betas])
                for x in dims
                for alpha in enumerate_maps(p, m, x)
            ]
            out.append((betas, alphas))
    return out


def oracle_validate(S):
    """The identity law, then (alpha beta)^* = beta^* alpha^* for every
    composable triple (alpha, beta, s) within the cap."""
    for d in range(S.cap + 1):
        ident = np.eye(d, dtype=np.int64)
        for s in S.elements(d):
            if S.act(ident, s) != s:
                return False
    for betas, alphas in composable_triples(S.p, S.cap):
        beta_tables = np.stack([S.act_table(beta) for beta in betas])
        for alpha, prods in alphas:
            lhs = beta_tables[:, S.act_table(alpha)]  # row k: beta_k^* alpha^*
            rhs = np.stack([S.act_table(alpha_beta) for alpha_beta in prods])
            if not np.array_equal(lhs, rhs):
                return False
    return True


def oracle_validate_pairs(S):
    """validate one pair (g, beta) at a time, on the cached table of each map."""
    for d in range(S.cap + 1):
        moved = np.flatnonzero(S.act_table(np.eye(d, dtype=np.int64)) != np.arange(S.size(d)))
        if moved.size:
            return sf.ValidationReport(False, 0, ("identity", d, int(moved[0])))
    checked = 0
    for d in range(S.cap + 1):
        gens = elementary_invertibles(S.p, d)
        if d < S.cap:
            eye = np.eye(d + 1, dtype=np.int64)
            gens += [eye[:d], eye[:, :d]]
        for g in gens:
            t_g = S.act_table(g)
            for n in range(S.cap + 1):
                for beta in enumerate_maps(S.p, n, g.shape[1]):
                    checked += 1
                    lhs = S.act_table(beta)[t_g]
                    rhs = S.act_table(g @ beta % S.p)
                    if not np.array_equal(lhs, rhs):
                        bad = int(np.nonzero(lhs != rhs)[0][0])
                        return sf.ValidationReport(False, checked, (g, beta, sf.SElement(g.shape[0], bad)))
    return sf.ValidationReport(True, checked)


def assert_real_violation(S, witness):
    if isinstance(witness[0], str):
        _, d, i = witness
        assert S.act(np.eye(d, dtype=np.int64), sf.SElement(d, i)) != sf.SElement(d, i)
    else:
        g, beta, s = witness
        assert S.act(beta, S.act(g, s)) != S.act(g @ beta % S.p, s)


def injective_identity_table(p=2, cap=2):
    """Not a functor: S(d) = {a, b} for every d, injective maps pull back by
    the identity and all other maps to the constant a.  With g injective, g
    beta is injective exactly when beta is, so every check with an
    invertible or an inclusion on the left passes; only a projection on the
    left shows the failure, as pi iota = id on F^0 for iota: F^0 -> F^1."""
    action = {
        (n, m, alpha.astype(np.uint8).tobytes()): (0, 1) if rank(alpha, p) == n else (0, 0)
        for n in range(cap + 1)
        for m in range(cap + 1)
        for alpha in enumerate_maps(p, n, m)
    }
    return sf.TableFunctor(p, cap, [2] * (cap + 1), action, name="injective-identity")


VALIDATE_CASES = {case: make for case, (make, _) in WEAK_CASES.items()}
VALIDATE_CASES["injective-identity"] = injective_identity_table


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_matches_triple_loop(case):
    S = VALIDATE_CASES[case]()
    assert S.cap <= 3
    rep = sf.validate(S)
    assert rep.ok == oracle_validate(S) == (case != "injective-identity")
    assert plain(rep) == plain(oracle_validate_pairs(S))
    if not rep.ok:
        assert_real_violation(S, rep.witness)


def single_entry_changes(T):
    """Every table that differs from T in one entry of one pullback list."""
    for key, tab in T.action.items():
        cols = key[0]
        for pos, old in enumerate(tab):
            for new in range(T.sizes[cols]):
                if new != old:
                    changed = tab.tolist()
                    changed[pos] = new
                    yield sf.TableFunctor(T.p, T.cap, T.sizes, {**as_lists(T.action), key: changed})


@pytest.mark.parametrize(
    "make",
    [lambda: sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 1, 2))), sf.kernel_mismatch_example],
    ids=["representable-u1-cap2", "kernel-mismatch"],
)
def test_validate_matches_triple_loop_on_single_entry_changes(make, monkeypatch):
    # slices of three maps, so witnesses past the first slice are counted too
    monkeypatch.setattr(gf, "MAP_SLICE", 3)
    oks = []
    for T in single_entry_changes(make()):
        rep = sf.validate(T)
        assert rep.ok == oracle_validate(T)
        assert plain(rep) == plain(oracle_validate_pairs(T))  # ok, checked_pairs and witness
        if not rep.ok:
            assert_real_violation(T, rep.witness)
        oks.append(rep.ok)
    assert oks and not any(oks)


# ---------------------------------------------------------------------------
# the pullback hook against per-element oracles


def test_act_reads_the_kept_table(monkeypatch):
    # act reads act_table: one pull of one map per table, however many
    # elements are read from it, and the table is kept
    S = sf.RepresentableFunctor(2, 1, 3)
    pulls = []
    pull = S._pull
    monkeypatch.setattr(S, "_pull", lambda alphas, s: pulls.append((len(alphas), s)) or pull(alphas, s))
    maps = [alpha for n in range(S.cap + 1) for m in range(S.cap + 1) for alpha in enumerate_maps(S.p, n, m)]
    for alpha in maps:
        tab = S.act_table(alpha)
        rows, cols = alpha.shape
        assert tab.shape == (S.size(rows),)
        for i in range(S.size(rows)):
            assert S.act(alpha, sf.SElement(rows, i)) == (cols, tab[i])
            assert S.act(alpha, i) == (cols, tab[i])
    assert pulls == [(1, slice(None))] * len(maps) and len(S._table_cache) == len(maps)
    with pytest.raises(ValueError, match="wrong dimension"):
        S.act(np.eye(1, dtype=np.int64), sf.SElement(2, 0))
    with pytest.raises(ValueError, match="exceeds the cap"):
        S.act_table(np.eye(4, dtype=np.int64))


def test_act_table_keys_carry_the_shape_and_refuse_bad_arrays():
    # the zero maps of shapes (0, 2), (2, 0) and (0, 0) have empty bytes but
    # distinct tables; an entry outside 0..p-1 or an array that is not 2-d
    # is refused on a miss, not read as some other map
    S = sf.RepresentableFunctor(3, 1, 2)
    for shape in [(0, 2), (2, 0), (0, 0)]:
        zero = np.zeros(shape, dtype=np.int64)
        assert np.array_equal(S.act_table(zero), S._pull(zero[None], slice(None))[0])
    assert sorted(shape for shape, _ in S._table_cache) == [(0, 0), (0, 2), (2, 0)]
    assert [len(S.act_table(np.zeros(shape, dtype=np.int64))) for shape in [(0, 2), (2, 0), (0, 0)]] == [1, 9, 1]
    for bad in (np.array([[3]]), np.array([[0, -1]]), np.array([1, 0]), np.array([[1.0]])):
        with pytest.raises(ValueError, match="not a matrix with int entries in 0..2"):
            S.act_table(bad)
    assert len(S._table_cache) == 3


def orbit_p3():
    return sf.OrbitFunctor(3, 2, [np.array([[2, 0], [0, 1]])], 2)


def orbit_p5():
    return sf.OrbitFunctor(5, 1, [np.array([[2]])], 2)


BATCHED_CASES = {
    **{
        f"representable-p{p}-u{u}": (lambda p=p, u=u: sf.RepresentableFunctor(p, u, 2))
        for p in (2, 3, 5)
        for u in (0, 1, 2)
    },
    "orbit-p2": orbit_u2,
    "orbit-p3": orbit_p3,
    "orbit-p5": orbit_p5,
    **{f"orbit-p{p}-u0": (lambda p=p: sf.OrbitFunctor(p, 0, [], 2)) for p in (2, 3, 5)},
}


def composition_oracle(S):
    """act_table by matrix products, each result found by its bytes among
    enumerate_maps; shares no code with gf.map_stack or gf.map_indices."""
    if isinstance(S, sf.OrbitFunctor):
        group = list(S._group_stack)
    else:
        group = [np.eye(S.u_dim, dtype=np.int64)]
    classes = {}
    for d in range(S.cap + 1):
        label, firsts = {}, []
        for m in enumerate_maps(S.p, d, S.u_dim):
            if m.tobytes() not in label:
                for g in group:
                    label[(g @ m % S.p).tobytes()] = len(firsts)
                firsts.append(m)
        classes[d] = label, firsts
    return lambda alpha: np.array(
        [classes[alpha.shape[1]][0][(m @ alpha % S.p).tobytes()] for m in classes[alpha.shape[0]][1]], dtype=np.int64
    )


def sample_maps(S, rows, cols, rng):
    """Every map of hom-sets up to 81 maps, rows or cols 0 among them; in
    larger ones the zero map, the identity and twelve random maps."""
    if count_maps(S.p, cols, rows) <= 81:
        return list(enumerate_maps(S.p, cols, rows))
    return [np.zeros((rows, cols), dtype=np.int64), np.eye(rows, cols, dtype=np.int64)] + [
        rng.integers(0, S.p, (rows, cols)) for _ in range(12)
    ]


def assert_pull_matches(S, oracle, rng):
    """act_table along every sampled map, and _pull along the stack of them
    (for all elements and at each index), equal the oracle's rows."""
    for rows in range(S.cap + 1):
        for cols in range(S.cap + 1):
            maps = sample_maps(S, rows, cols, rng)
            want = np.array([oracle(alpha) for alpha in maps], dtype=np.int64).reshape(len(maps), S.size(rows))
            for alpha, row in zip(maps, want):
                got = S.act_table(alpha)
                assert got.dtype == np.int64 and np.array_equal(got, row), alpha
            stack = np.array(maps)
            assert np.array_equal(S._pull(stack, slice(None)), want)
            for i in range(S.size(rows)):
                assert np.array_equal(S._pull(stack, i), want[:, i])
            ids = rng.permutation(np.repeat(np.arange(S.size(rows)), 2))[:6]  # repeats, or empty
            got = S._pull(stack, ids)
            assert got.shape == (len(maps), len(ids)) and np.array_equal(got, want[:, ids])


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_batched_act_table_matches_element_loop(case):
    S = BATCHED_CASES[case]()
    assert_pull_matches(S, composition_oracle(S), np.random.default_rng(7))


def subspace_oracle(S):
    """Pullback by preimage, each subspace found by value among
    enumerate_subspaces."""
    subs = {d: enumerate_subspaces(S.p, d) for d in range(S.cap + 1)}
    return lambda alpha: [subs[alpha.shape[1]].index(preimage(alpha, u)) for u in subs[alpha.shape[0]]]


def table_oracle(doc):
    """The entries of an sfunctor.json document."""
    return lambda alpha: doc["action"][sf._map_key(alpha)]


def union_oracle(a, b, oracle_a, oracle_b):
    """a's pullbacks, then b's shifted past S_a(cols)."""
    return lambda alpha: list(oracle_a(alpha)) + [a.size(alpha.shape[1]) + t for t in oracle_b(alpha)]


def component_oracle(base, oracle, gamma):
    """The base pullbacks of the members, renumbered by member position; the
    members are the elements whose pullback along the inclusion of 0 is
    gamma."""
    members = {
        d: [i for i, t in enumerate(oracle(np.zeros((d, 0), dtype=np.int64))) if t == gamma]
        for d in range(base.cap + 1)
    }

    def pull(alpha):
        full = oracle(alpha)
        return [members[alpha.shape[1]].index(full[i]) for i in members[alpha.shape[0]]]

    return pull


def hook_cases():
    R = sf.RepresentableFunctor(2, 1, 2)
    doc = sf.to_json_dict(R)
    T = sf.from_json_dict(doc)
    subs = sf.SubspaceFunctor(2, 2)
    U = sf.disjoint_union(R, subs)
    subs3 = sf.SubspaceFunctor(2, 3)
    cases = {
        "subspaces": (subs3, subspace_oracle(subs3)),
        "table": (T, table_oracle(doc)),
        "union": (U, union_oracle(R, subs, composition_oracle(R), subspace_oracle(subs))),
        "union-of-tables": (sf.disjoint_union(T, T), union_oracle(T, T, table_oracle(doc), table_oracle(doc))),
    }
    both = sf.disjoint_union(R, R)
    both_oracle = union_oracle(R, R, composition_oracle(R), composition_oracle(R))
    for gamma, C in enumerate(sf.split_components(both)):
        cases[f"component-{gamma}"] = (C, component_oracle(both, both_oracle, gamma))
    for gamma, C in enumerate(sf.split_components(U)):
        cases[f"union-component-{gamma}"] = (C, component_oracle(U, cases["union"][1], gamma))
    return cases


@pytest.mark.parametrize("case", ["subspaces", "table", "union", "union-of-tables",
                                  "component-0", "component-1", "union-component-0", "union-component-1"])
def test_pull_matches_element_oracle(case):
    S, oracle = hook_cases()[case]
    assert_pull_matches(S, oracle, np.random.default_rng(11))


def test_table_pull_names_a_missing_map():
    T = sf.from_json_dict(sf.to_json_dict(sf.RepresentableFunctor(2, 1, 1)))
    del T.action[(1, 1, b"\x01")]
    stack = np.array(list(enumerate_maps(2, 1, 1)))
    with pytest.raises(sf.InvalidFunctorData, match="no pullback along the map 1x1:1"):
        T._pull(stack, slice(None))
