"""Field-level linear algebra: frozen examples plus invariant checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functorlab.gf import (
    BudgetExceeded,
    LinearMap,
    Subspace,
    _stacked_nullspace,
    check_prime,
    closure,
    decode_entries,
    encode_entries,
    enumerate_invertibles,
    enumerate_maps,
    enumerate_subspaces,
    gaussian_binomial,
    kernel_space,
    nullspace,
    pivot_complement,
    preimage,
    proj_with_kernel,
    rank,
    rref,
    rref_bits,
    rref_dense,
    solve,
)


def test_rref_identity():
    m = np.eye(2, dtype=np.int64)
    r, piv = rref(m, 2)
    assert np.array_equal(r, m)
    assert piv == [0, 1]


def test_rref_zero():
    r, piv = rref(np.zeros((2, 2), dtype=np.int64), 2)
    assert not r.any()
    assert piv == []


def test_rref_ones_gf2():
    # hand row-reduction: second row cancels against the first
    r, piv = rref([[1, 1], [1, 1]], 2)
    assert r.tolist() == [[1, 1], [0, 0]]
    assert piv == [0]


def test_rref_generic_p3():
    r, piv = rref([[2, 1], [1, 2]], 3)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert piv == [0]


def test_kernel_invertible_is_zero():
    m = LinearMap.from_array([[1, 1], [0, 1]], 2)
    assert kernel_space(m).dim == 0


def test_kernel_zero_map_is_full():
    m = LinearMap.zero(2, 2, 2)
    k = kernel_space(m)
    assert k == Subspace.full(2, 2)


def test_kernel_projector():
    # solve m v = 0 by hand: v = e2
    m = LinearMap.from_array([[1, 0], [0, 0]], 2)
    assert kernel_space(m).basis_arr.tolist() == [[0, 1]]


def test_preimage_identity_and_full():
    m = LinearMap.identity(2, 2)
    t = Subspace.from_vectors([[1, 0]], 2, 2)
    assert preimage(m, t) == t
    assert preimage(LinearMap.from_array([[1, 0], [0, 0]], 2), Subspace.full(2, 2)) == Subspace.full(2, 2)


def test_preimage_projector_line():
    # enumerate all four vectors: every v has m v in span(e1)
    m = LinearMap.from_array([[1, 0], [0, 0]], 2)
    t = Subspace.from_vectors([[1, 0]], 2, 2)
    assert preimage(m, t) == Subspace.full(2, 2)


def test_pivot_complement_cases():
    assert pivot_complement(Subspace.zero(2, 2)) == Subspace.full(2, 2)
    assert pivot_complement(Subspace.full(2, 2)) == Subspace.zero(2, 2)
    u = Subspace.from_vectors([[1, 1]], 2, 2)
    assert pivot_complement(u).basis_arr.tolist() == [[0, 1]]


def test_enumerate_maps_basics():
    assert len(list(enumerate_maps(2, 1, 1))) == 2
    subs = enumerate_subspaces(2, 2)
    assert len(subs) == 5
    assert len(set(subs)) == 5
    assert len(list(enumerate_invertibles(2, 2))) == 6  # (4-1)(4-2)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_maps(2, 5, 5, budget=100))


def test_subspace_count_matches_gaussian_binomials():
    for p, d in [(2, 3), (3, 2)]:
        subs = enumerate_subspaces(p, d)
        # independent count: product-formula Gaussian binomials
        def gb(n, k):
            num = den = 1
            for i in range(k):
                num *= p ** (n - i) - 1
                den *= p ** (i + 1) - 1
            return num // den

        assert len(subs) == sum(gb(d, k) for k in range(d + 1))
        assert len(set(subs)) == len(subs)
        assert gaussian_binomial(d, 1, p) == (p**d - 1) // (p - 1)


def test_rref_idempotent_exhaustive_small():
    for p in (2, 3):
        for m in enumerate_maps(p, 2, 2):
            r1, piv1 = rref(m.arr, p)
            r2, piv2 = rref(r1, p)
            assert np.array_equal(r1, r2) and piv1 == piv2


def test_rank_nullity_exhaustive_dim_le_3():
    for m in enumerate_maps(2, 3, 2):
        assert kernel_space(m).dim + m.rank() == m.cols


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.sampled_from([2, 3]), st.integers(0, 2**30))
def test_preimage_of_kernel_is_kernel_of_composite(n, m, x, p, seed):
    rng = np.random.default_rng(seed)
    a = LinearMap.from_array(rng.integers(0, p, size=(m, n)), p)
    q = LinearMap.from_array(rng.integers(0, p, size=(x, m)), p)
    assert preimage(a, kernel_space(q)) == kernel_space(q @ a)


def test_pivot_complement_is_complement():
    for p in (2, 3):
        for d in range(5):
            for u in enumerate_subspaces(p, d):
                c = pivot_complement(u)
                assert u.intersect(c).dim == 0
                assert u.dim + c.dim == d


def test_proj_with_kernel_contract():
    for u in enumerate_subspaces(2, 3):
        proj, sect = proj_with_kernel(u)
        assert kernel_space(proj) == u
        assert (proj @ sect) == LinearMap.identity(3 - u.dim, 2)


def test_bitpacked_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 70)))
        rb, pb = rref_bits(m)
        rd, pd = rref_dense(m, 2)
        assert np.array_equal(rb, rd) and pb == pd


def test_solve_and_nullspace():
    a = np.asarray([[1, 1, 0], [0, 1, 1]])
    x = solve(a, [1, 0], 2)
    assert x is not None and np.array_equal((a @ x) % 2, [1, 0])
    assert solve([[1, 1], [1, 1]], [1, 0], 2) is None
    ker = nullspace(a, 2)
    assert ker.shape[0] == 1 and not ((a @ ker.T) % 2).any()


def test_empty_shapes():
    z = LinearMap.zero(0, 2, 2)
    assert kernel_space(z) == Subspace.full(2, 2)
    i0 = LinearMap.identity(0, 2)
    assert (i0 @ z).rows == 0 and (i0 @ z).cols == 2
    assert rank(np.zeros((0, 3), dtype=np.int64), 2) == 0


def test_tensor_and_direct_sum():
    a = LinearMap.from_array([[1, 1], [0, 1]], 2)
    b = LinearMap.from_array([[1]], 2)
    t = a.tensor(a)
    assert t.rows == 4 and t.is_invertible()
    d = a.direct_sum(b)
    assert d.rows == 3 and d.arr[2, 2] == 1 and d.arr[0, 2] == 0


def test_map_enumeration_budget_and_determinism():
    first = [m.data for m in enumerate_maps(3, 1, 2)]
    second = [m.data for m in enumerate_maps(3, 1, 2)]
    assert first == second and len(first) == 9


def test_enumerate_injections():
    from functorlab.gf import enumerate_injections

    # injective maps F_2 -> F_2^2 are exactly the nonzero ones
    assert len(list(enumerate_injections(2, 1, 2))) == 3
    # |injections F_2^2 -> F_2^3| = (2^3 - 1)(2^3 - 2)
    assert len(list(enumerate_injections(2, 2, 3))) == 42


def test_map_key_codec_reads_both_layouts():
    m = LinearMap.from_array([[0, 10], [3, 1]], 11)
    assert encode_entries(m) == "0.10.3.1"
    assert decode_entries(encode_entries(m), 2, 2, 11) == m
    # keys written with one character per entry still read back
    old = LinearMap.from_array([[0, 1], [1, 1]], 2)
    assert decode_entries("0111", 2, 2, 2) == old
    assert decode_entries("7", 1, 1, 11) == LinearMap.from_array([[7]], 11)
    assert decode_entries("", 0, 3, 2) == LinearMap.zero(0, 3, 2)
    with pytest.raises(ValueError):
        decode_entries("0.1.1", 2, 2, 2)


def test_check_prime_rejects_what_uint8_cannot_store():
    assert check_prime(251) == 251
    for bad in (4, 1, 257):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    import ast
    from pathlib import Path

    import functorlab

    root = Path(functorlab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# -- the closure engine ---------------------------------------------------------


def _closure_oracle(dims, edges, start, p):
    """Every basis through every edge, round after round, until nothing changes."""
    bases = {k: np.zeros((0, n), dtype=np.int64) for k, n in dims.items()}
    for k, v in start.items():
        if not dims[k]:
            continue
        r, piv = rref(np.asarray(v, dtype=np.int64).reshape(-1, dims[k]), p)
        bases[k] = r[: len(piv)]
    changed = True
    while changed:
        changed = False
        for i, j, m in edges:
            if not bases[i].shape[0]:
                continue
            r, piv = rref(np.concatenate([bases[j], (bases[i] @ m.T) % p]), p)
            if len(piv) != bases[j].shape[0]:
                bases[j] = r[: len(piv)]
                changed = True
    return bases


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closure_matches_fixed_point_on_random_graphs(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        dims = {k: int(rng.integers(0, 5)) for k in range(int(rng.integers(1, 5)))}
        edges = []
        for _ in range(int(rng.integers(0, 7))):
            i, j = (int(k) for k in rng.integers(0, len(dims), size=2))
            m = rng.integers(0, p, size=(dims[j], dims[i]))
            # sparse maps leave proper closures more often
            edges.append((i, j, m * (rng.random(m.shape) < 0.4)))
        start = {k: rng.integers(0, p, size=(int(rng.integers(0, 3)), n)) for k, n in dims.items() if rng.random() < 0.6}
        got = closure(dims, edges, start, p)
        want = _closure_oracle(dims, edges, start, p)
        assert got.keys() == want.keys()
        for k in dims:
            assert np.array_equal(got[k], want[k]), (dims, k)


def test_closure_pushes_increments_and_reads_matrices_lazily():
    calls = []

    def counted(name, m):
        def read():
            calls.append(name)
            return np.asarray(m, dtype=np.int64)
        return read

    def never():
        raise AssertionError("matrix read without vectors to push")

    # a nilpotent shift on F_2^4 reaches one new vector per round from e_3
    shift = np.eye(4, k=1, dtype=np.int64)
    out = closure({0: 4}, [(0, 0, counted("shift", shift))], {0: [0, 0, 0, 1]}, 2)
    assert np.array_equal(out[0], np.eye(4, dtype=np.int64)) and calls == ["shift"]
    # piece 2 never has vectors; piece 0 is full from the start; 1 fills from 0
    calls.clear()
    edges = [(0, 1, counted("0->1", np.eye(2))), (2, 1, never), (1, 0, never)]
    out = closure({0: 2, 1: 2, 2: 3}, edges, {0: np.eye(2)}, 2)
    assert [b.shape[0] for b in out.values()] == [2, 2, 0] and calls == ["0->1"]


def test_stacked_nullspace_matches_one_shot_kernel():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for _ in range(30):
            ncols = int(rng.integers(1, 8))
            chunks = [rng.integers(0, p, size=(int(rng.integers(0, 5)), ncols)) * (rng.random() < 0.8) for _ in range(4)]
            want = nullspace(np.concatenate(chunks), p)
            assert np.array_equal(_stacked_nullspace(iter(chunks), ncols, p), want)
