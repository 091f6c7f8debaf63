"""Field-level linear algebra: frozen examples plus invariant checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functorlab import gf
from functorlab.gf import (
    BudgetExceeded,
    Subspace,
    check_prime,
    closure,
    decode_entries,
    elementary_invertibles,
    encode_entries,
    enumerate_maps,
    enumerate_subspaces,
    gaussian_binomial,
    general_linear,
    generator_start,
    gl_generators,
    intertwiner_space,
    inverse,
    kernel_space,
    map_indices,
    map_slices,
    map_stack,
    nullspace,
    pivot_complement,
    preimage,
    proj_with_kernel,
    rank,
    rref,
    rref_bits,
    rref_dense,
    restrict,
    solve,
    tensor_apply,
)
from gf_oracle import _stacked_nullspace, enumerate_injections, intersect
from gf_oracle import intertwiner_space as oracle_intertwiner_space
from gf_oracle import nullspace as oracle_nullspace
from gf_oracle import rref_dense as oracle_rref_dense


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


def test_rref_rank_one_and_zero():
    r, piv = rref(np.array([[1, 1], [1, 1]]), 2)
    assert r.tolist() == [[1, 1], [0, 0]] and piv == [0]
    z = np.zeros((2, 2), dtype=np.int64)
    r, piv = rref(z, 2)
    assert np.array_equal(r, z) and piv == []


def test_rref_generic_p3():
    r, piv = rref([[2, 1], [1, 2]], 3)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert piv == [0]


def test_kernel_invertible_is_zero():
    m = np.array([[1, 1], [0, 1]])
    assert kernel_space(m, 2).dim == 0


def test_kernel_zero_map_is_full():
    m = np.zeros((2, 2), dtype=np.int64)
    k = kernel_space(m, 2)
    assert k == Subspace.full(2, 2)


def test_kernel_projector():
    # solve m v = 0 by hand: v = e2
    m = np.array([[1, 0], [0, 0]])
    assert kernel_space(m, 2).basis_arr.tolist() == [[0, 1]]


def test_preimage_identity_and_full():
    m = np.eye(2, dtype=np.int64)
    t = Subspace.from_vectors([[1, 0]], 2, 2)
    assert preimage(m, t) == t
    assert preimage(np.array([[1, 0], [0, 0]]), Subspace.full(2, 2)) == Subspace.full(2, 2)


def test_preimage_projector_line():
    # enumerate all four vectors: every v has m v in span(e1)
    m = np.array([[1, 0], [0, 0]])
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
    assert len(general_linear(2, 2)) == 6  # (4-1)(4-2)


@pytest.mark.parametrize(
    "p,n", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2)]
)
def test_general_linear_is_one_read_only_stack(p, n):
    # the batched elimination against one rank per map
    gl = general_linear(p, n)
    stack = map_stack(p, n, n)
    assert gl.dtype == np.int64 and not gl.flags.writeable
    assert np.array_equal(gl, stack[[rank(m, p) == n for m in stack]])
    assert general_linear(p, n) is gl


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_maps(2, 5, 5, budget=100))
    with pytest.raises(BudgetExceeded):
        map_stack(2, 5, 5)
    # map_indices is bounded by int64 alone: the 2^64 maps F_2^8 -> F_2^8 overflow it
    with pytest.raises(BudgetExceeded):
        map_indices(np.zeros((1, 8, 8), dtype=np.int64), 2)


def oracle_enumerate_maps(p, dom_dim, cod_dim):
    """Every map F_p^dom -> F_p^cod, its column-major entries running through
    itertools.product."""
    if dom_dim * cod_dim == 0:
        return [np.zeros((cod_dim, dom_dim), dtype=np.int64)]
    return [
        np.asarray(digits, dtype=np.int64).reshape(dom_dim, cod_dim).T
        for digits in itertools.product(range(p), repeat=dom_dim * cod_dim)
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("dom,cod", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_map_stack_follows_enumerate_maps(p, dom, cod, monkeypatch):
    maps = oracle_enumerate_maps(p, dom, cod)
    stack = map_stack(p, dom, cod)
    assert stack.shape == (len(maps), cod, dom)
    assert all(np.array_equal(arr, m) for arr, m in zip(stack, maps))
    assert np.array_equal(map_indices(stack, p), np.arange(len(maps)))
    assert np.array_equal(map_indices(stack[None], p), np.arange(len(maps))[None])
    assert np.array_equal(list(enumerate_maps(p, dom, cod)), maps)
    # enumerate_maps walks map_slices, so odd slice sizes give the same order
    monkeypatch.setattr(gf, "MAP_SLICE", 7)
    assert len(list(map_slices(p, dom, cod))) == -(-len(maps) // 7)
    assert np.array_equal(list(enumerate_maps(p, dom, cod)), maps)
    assert np.array_equal(map_stack(p, dom, cod), stack)


def test_map_slices_honour_their_budget(monkeypatch):
    # the budget of the walk is the caller's, not the default map budget
    monkeypatch.setattr(gf, "DEFAULT_MAP_BUDGET", 100)
    assert sum(len(s) for s in map_slices(2, 3, 3, budget=512)) == 512
    with pytest.raises(BudgetExceeded):
        next(map_slices(2, 3, 3, budget=511))
    with pytest.raises(BudgetExceeded):
        map_stack(2, 3, 3)


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
            r1, piv1 = rref(m, p)
            r2, piv2 = rref(r1, p)
            assert np.array_equal(r1, r2) and piv1 == piv2


def test_rank_nullity_exhaustive_dim_le_3():
    for m in enumerate_maps(2, 3, 2):
        assert kernel_space(m, 2).dim + rank(m, 2) == m.shape[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.sampled_from([2, 3]), st.integers(0, 2**30))
def test_preimage_of_kernel_is_kernel_of_composite(n, m, x, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n))
    q = rng.integers(0, p, size=(x, m))
    assert preimage(a, kernel_space(q, p)) == kernel_space(q @ a % p, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.sampled_from([2, 3, 5]), st.integers(0, 2**30))
def test_line_in_preimage_iff_projection_kills_its_image(n, m, k, p, seed):
    # the line test of sfunctor's weak noetherianity check: <v> lies in
    # alpha^{-1}(U) exactly when the projection with kernel U kills alpha v
    rng = np.random.default_rng(seed)
    alpha = rng.integers(0, p, size=(m, n))
    u = Subspace.from_vectors(rng.integers(0, p, size=(k, m)), p, m)
    v = rng.integers(0, p, size=n)
    v[rng.integers(n)] = rng.integers(1, p)
    inside = not (proj_with_kernel(u)[0] @ alpha @ v % p).any()
    assert preimage(alpha, u).contains_vector(v) == inside


def test_pivot_complement_is_complement():
    for p in (2, 3):
        for d in range(5):
            for u in enumerate_subspaces(p, d):
                c = pivot_complement(u)
                assert intersect(u, c).dim == 0
                assert u.dim + c.dim == d


def test_proj_with_kernel_contract():
    for u in enumerate_subspaces(2, 3):
        proj, sect = proj_with_kernel(u)
        assert kernel_space(proj, 2) == u
        assert np.array_equal(proj @ sect % 2, np.eye(3 - u.dim, dtype=np.int64))


def test_bitpacked_matches_dense():
    # half the widths are those rref sends to the packed path; rref_dense
    # takes both its regimes on them
    rng = np.random.default_rng(7)
    for t in range(80):
        m = rng.integers(0, 2, size=(rng.integers(1, 24), rng.integers(48, 71) if t % 2 else rng.integers(1, 71)))
        rb, pb = rref_bits(m)
        rd, pd = rref_dense(m, 2)
        assert np.array_equal(rb, rd) and pb == pd


def test_short_wide_gf2_rref_stays_in_lists(monkeypatch):
    # up to _LIST_CELLS entries rref reduces GF(2) input as Python lists
    # however wide it is, with the forms rref_bits computes
    rng = np.random.default_rng(27)
    packed = _spy(monkeypatch, "rref_bits")
    for t in range(120):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(48, gf._LIST_CELLS // m + 1))
        mat = _entries(rng, 2, (m, n), (1.0, 0.3, 0.05)[t % 3])
        got = rref(mat, 2)
        want = rref_bits(mat)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], (m, n)
    assert not packed
    assert len(rref(np.ones((8, 65), dtype=np.int64), 2)[1]) == 1 and len(packed) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_rref_dense_matches_the_row_by_row_oracle(p):
    # shapes on both sides of _LIST_CELLS, dense and about 2% nonzero, some
    # with a repeated combination of rows; entries outside 0..p-1 too
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (256, 8), (8, 256), (16, 32), (16, 33), (32, 16), (33, 16), (3, 200)]
    shapes += [tuple(int(x) for x in rng.integers(1, 40, size=2)) for _ in range(12)]
    regimes = set()
    for shape in shapes:
        for density in (1.0, 0.02):
            mat = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
            if shape[0] > 2:
                mat[-1] = (2 * mat[0] + mat[1]) % p
            for m in (mat, mat - p * rng.integers(-1, 2, size=shape)):
                before = m.copy()
                got, want = rref_dense(m, p), oracle_rref_dense(m, p)
                assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape, shape
                assert np.array_equal(got[0], want[0]) and got[1] == want[1], (shape, density)
                got[0][...] = 1 - got[0]
                assert np.array_equal(m, before), shape
        regimes.add(shape[0] * shape[1] <= gf._LIST_CELLS)
    assert regimes == {True, False}


def test_pivots_read_the_leading_column_of_each_row():
    for shape in ((0, 0), (0, 4)):
        assert gf._pivots(np.zeros(shape, dtype=np.int64)) == []
    for u in [Subspace.zero(0, 2), *enumerate_subspaces(3, 3)]:
        assert u.pivots == [int(np.nonzero(row)[0][0]) for row in u.basis_arr]


def test_solve_and_nullspace():
    a = np.asarray([[1, 1, 0], [0, 1, 1]])
    x = solve(a, [1, 0], 2)
    assert x is not None and np.array_equal((a @ x) % 2, [1, 0])
    assert solve([[1, 1], [1, 1]], [1, 0], 2) is None
    ker = nullspace(a, 2)
    assert ker.shape[0] == 1 and not ((a @ ker.T) % 2).any()


def test_nullspace_matches_two_rref_oracle():
    # one RREF of the reversed columns gives the reduced kernel basis; the
    # wide GF(2) matrices take the packed path, and some rows repeat others
    rng = np.random.default_rng(19)
    shapes = set()
    for t in range(4000):
        p = (2, 3, 5, 7, 251)[t % 5]
        rows, cols = (int(x) for x in rng.integers(0, 7, size=2))
        if t % 40 == 0:
            cols = int(rng.integers(48, 70))
        mat = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < rng.choice([0.3, 1.0]))
        if rows > 2 and rng.random() < 0.3:
            mat[-1] = (2 * mat[0] + mat[1]) % p
        got, want = nullspace(mat, p), oracle_nullspace(mat, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (p, mat)
        assert got.flags.c_contiguous
        shapes.add((got.shape[0] == 0, got.shape[0] == cols))
    assert shapes == {(True, False), (False, True), (False, False), (True, True)}


# shapes whose cell counts straddle _LIST_CELLS = 512, and empty ones
REGIME_SHAPES = [(0, 0), (0, 6), (6, 0), (1, 1), (2, 4), (7, 73), (73, 7), (16, 32), (32, 16), (27, 19), (19, 27), (3, 200)]


def _entries(rng, p, shape, density):
    """Seeded entries in 0..p-1, about density nonzero, some rows repeated."""
    mat = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
    if shape[0] > 2:
        mat[-1] = (2 * mat[0] + mat[1]) % p
    return mat


def _spy(monkeypatch, name):
    """Count the calls to gf.<name> in a list that is returned."""
    calls, fn = [], getattr(gf, name)
    monkeypatch.setattr(gf, name, lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_nullspace_regimes_match_the_two_rref_oracle(p, monkeypatch):
    # both regimes, on entries outside 0..p-1 too; the result is a new array
    # and the input stays as it was
    rng = np.random.default_rng(100 + p)
    lists = _spy(monkeypatch, "_nullspace_lists")
    calls = 0
    for shape in REGIME_SHAPES:
        for density in (1.0, 0.1, 0.02):
            mat = _entries(rng, p, shape, density)
            for m in (mat, mat - p * rng.integers(-1, 2, size=shape)):
                before = m.copy()
                got, want = nullspace(m, p), oracle_nullspace(m, p)
                assert got.dtype == want.dtype and got.shape == want.shape, shape
                assert np.array_equal(got, want) and got.flags.c_contiguous, (shape, density)
                assert not np.shares_memory(got, m)
                got[...] = 1 - got
                assert np.array_equal(m, before), shape
                calls += bool(m.size)
    assert 0 < len(lists) < calls


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_extend_regimes_match_one_rref_of_the_sum(p, monkeypatch):
    # _extend(basis, pivots, rows) is the RREF of the stacked rows, and its
    # increment the rows of that RREF at new pivots; basis and rows together
    # straddle _LIST_CELLS (511, 512 and 513 cells where the rank allows)
    rng = np.random.default_rng(200 + p)
    lists = _spy(monkeypatch, "_extend_lists")
    calls = 0
    for n, cells in ((1, 4), (4, 12), (73, 511), (32, 512), (19, 513), (16, 512), (40, 2000)):
        for density in (1.0, 0.1):
            for k in (0, 1, cells // n // 2, cells // n):
                r, piv = rref(_entries(rng, p, (k, n), density), p)
                basis = r[: len(piv)]
                t = max(cells // n - len(piv), 1)
                rows = _entries(rng, p, (t, n), density) - p * rng.integers(-1, 2, size=(t, n))
                before = (basis.copy(), rows.copy())
                out, pivots, inc = gf._extend(basis, list(piv), rows, p)
                want, want_piv = rref(np.concatenate([basis, rows]), p)
                assert np.array_equal(out, want[: len(want_piv)]) and pivots == want_piv, (n, k)
                new = [i for i, c in enumerate(want_piv) if c not in piv]
                assert inc.dtype == np.int64 and np.array_equal(inc, want[new]), (n, k)
                for got in (out, inc):
                    assert not np.shares_memory(got, rows)
                    assert got is basis or not np.shares_memory(got, basis)
                assert all(np.array_equal(a, b) for a, b in zip((basis, rows), before))
                calls += 1
    assert 0 < len(lists) < calls


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_proj_with_kernel_regimes_keep_the_contract(p, monkeypatch):
    # P kills exactly u, P @ section = id, the section sends the j-th unit
    # vector to the j-th non-pivot one; both are fresh writable arrays, and
    # the two regimes agree (F^d x F^d holds 484, 529 and 900 cells at d =
    # 22, 23 and 30)
    rng = np.random.default_rng(300 + p)
    spaces = [Subspace.zero(0, p), Subspace.zero(5, p), Subspace.full(5, p)]
    for d in (1, 2, 5, 22, 23, 30):
        for k in (1, d // 2, d - 1):
            spaces.append(Subspace.from_vectors(_entries(rng, p, (k, d), rng.choice([1.0, 0.1])), p, d))
    lists = _spy(monkeypatch, "_proj_with_kernel_lists")
    for u in spaces:
        proj, sect = proj_with_kernel(u)
        d, piv = u.ambient, u.pivots
        nonpiv = [j for j in range(d) if j not in piv]
        assert proj.shape == (d - u.dim, d) and sect.shape == (d, d - u.dim)
        assert proj.dtype == sect.dtype == np.int64
        assert kernel_space(proj, p) == u
        assert np.array_equal(proj @ sect % p, np.eye(d - u.dim, dtype=np.int64))
        assert np.array_equal(sect, np.eye(d, dtype=np.int64)[:, nonpiv])
        assert proj.flags.writeable and sect.flags.writeable and not np.shares_memory(proj, sect)
        with monkeypatch.context() as m:
            m.setattr(gf, "_LIST_CELLS", 0 if d * d <= gf._LIST_CELLS else 10**9)
            other = proj_with_kernel(u)
        assert np.array_equal(other[0], proj) and np.array_equal(other[1], sect)
    assert 0 < len(lists) < 2 * len(spaces)


def test_line_vectors_match_enumerate_subspaces():
    for p in (2, 3, 5):
        for d in range(5):
            want = [u.basis_arr[0] for u in enumerate_subspaces(p, d) if u.dim == 1]
            got = gf.line_vectors(p, d)
            assert got.dtype == np.int64 and got.shape == (len(want), d)
            assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(len(want), d)), (p, d)


def test_empty_shapes():
    z = np.zeros((0, 2), dtype=np.int64)
    assert kernel_space(z, 2) == Subspace.full(2, 2)
    i0 = np.eye(0, dtype=np.int64)
    assert (i0 @ z).shape == (0, 2)
    assert inverse(i0, 2).shape == (0, 0)
    assert rank(np.zeros((0, 3), dtype=np.int64), 2) == 0


def test_tensor_of_invertibles_is_invertible():
    a = np.array([[1, 1], [0, 1]])
    t = tensor_apply([a, a], np.eye(4, dtype=np.int64), 2)
    assert t.shape == (4, 4) and rank(t, 2) == 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverse_over_general_linear(p):
    # every invertible 2x2 matrix times its inverse is I, on both sides; a
    # singular or non-square matrix has no inverse
    eye = np.eye(2, dtype=np.int64)
    for g in general_linear(p, 2):
        g_inv = inverse(g, p)
        assert g_inv.dtype == np.int64 and ((0 <= g_inv) & (g_inv < p)).all()
        assert np.array_equal(g @ g_inv % p, eye) and np.array_equal(g_inv @ g % p, eye)
    with pytest.raises(ValueError, match="not invertible"):
        inverse(np.array([[1, 1], [1, 1]]), p)
    with pytest.raises(ValueError, match="not square"):
        inverse(np.zeros((1, 2), dtype=np.int64), p)


def _kron_chain(factors, x, p):
    """The Kronecker product formed explicitly, then applied: the oracle."""
    big = np.eye(1, dtype=np.int64)
    for a in factors:
        big = np.kron(big, a)
    return (big @ x) % p


@pytest.mark.parametrize("p", [2, 3, 251])
def test_tensor_apply_matches_kron_chain(p):
    rng = np.random.default_rng(p)
    for m in range(5):
        for _ in range(40):
            factors = [rng.integers(0, p, size=tuple(rng.integers(0, 4, size=2))) for _ in range(m)]
            cols = int(np.prod([a.shape[1] for a in factors]))
            x = rng.integers(0, p, size=(cols, int(rng.integers(0, 4))))
            got = tensor_apply(factors, x, p)
            want = _kron_chain(factors, x, p)
            assert got.shape == want.shape and got.dtype == np.int64
            assert np.array_equal(got, want)


def test_tensor_apply_empty_shapes():
    a, z_rows, z_cols = np.ones((2, 3), dtype=np.int64), np.ones((0, 2), dtype=np.int64), np.ones((2, 0), dtype=np.int64)
    assert tensor_apply([a, z_rows], np.ones((6, 4), dtype=np.int64), 3).shape == (0, 4)
    assert not tensor_apply([z_cols, a], np.ones((0, 2), dtype=np.int64), 3).any()
    assert tensor_apply([z_cols, a], np.ones((0, 2), dtype=np.int64), 3).shape == (4, 2)
    assert tensor_apply([a, a], np.ones((9, 0), dtype=np.int64), 3).shape == (4, 0)
    x = np.array([[1, 2]], dtype=np.int64)
    assert np.array_equal(tensor_apply([], x, 3), x)


@pytest.mark.parametrize("shape,m", [((5, 5), 3), ((2, 2), 7)], ids=["three-5x5", "seven-2x2"])
def test_tensor_apply_does_not_overflow_at_251(shape, m):
    # factors and x full of 250s, with a Python-int oracle: reduced after
    # every factor, no entry passes 5 * 250^2; reduced only at the end, seven
    # 2 x 2 factors would reach 2^7 * 250^8 ~ 2e21 and wrap in int64
    p = 251
    factors = [np.full(shape, p - 1, dtype=np.int64)] * m
    x = np.full((shape[1] ** m, 3), p - 1, dtype=np.int64)
    want = _kron_chain([a.astype(object) for a in factors], x.astype(object), p)
    assert np.array_equal(tensor_apply(factors, x, p), want.astype(np.int64))


def test_restrict_takes_tensor_factors():
    # the swap-stable line of F_2^2 (x) F_2^2 spanned by e_0 (x) e_0: the
    # unipotent a sends it outside itself, the identity keeps it
    a = np.array([[1, 0], [1, 1]], dtype=np.int64)
    line = np.array([[1, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="subspace is not respected"):
        restrict([a, a], line, line, 2)
    full = np.eye(4, dtype=np.int64)
    assert np.array_equal(restrict([a, a], full, full, 2), _kron_chain([a, a], full, 2))
    assert np.array_equal(restrict([np.eye(2, dtype=np.int64)] * 2, line, line, 2), [[1]])


def test_map_enumeration_budget_and_determinism():
    first = [m.tobytes() for m in enumerate_maps(3, 1, 2)]
    second = [m.tobytes() for m in enumerate_maps(3, 1, 2)]
    assert first == second and len(first) == 9


def test_enumerate_injections():
    # injective maps F_2 -> F_2^2 are exactly the nonzero ones
    assert len(list(enumerate_injections(2, 1, 2))) == 3
    # |injections F_2^2 -> F_2^3| = (2^3 - 1)(2^3 - 2)
    assert len(list(enumerate_injections(2, 2, 3))) == 42


@pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)])
def test_elementary_invertibles_generate_general_linear(p, n):
    # sfunctor.validate relies on these generating GL(n, p) as a monoid
    gens = elementary_invertibles(p, n)
    assert all(rank(g, p) == n for g in gens)
    reached = {np.eye(n, dtype=np.int64).tobytes()}
    frontier = reached
    while frontier:
        frontier = {(g @ np.frombuffer(m, dtype=np.int64).reshape(n, n) % p).tobytes() for g in gens for m in frontier}
        frontier -= reached
        reached = reached | frontier
    assert reached == {g.tobytes() for g in general_linear(p, n)}


def _generated_order(gens, p, n):
    """The order of the group the matrices generate: a breadth-first closure
    from I under left multiplication by each, every matrix coded by the
    codes of its columns, every vector v by its base-p digits."""
    size = p**n
    weights = p ** np.arange(n)
    vectors = np.arange(size)[:, None] // weights % p
    tables = [(vectors @ g.T % p) @ weights for g in gens]  # code of g v, by the code of v
    places = size ** np.arange(n)
    start = int(weights @ places)  # column c of I is e_c, code p^c
    seen = np.zeros(size**n, dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        cols = [frontier // place % size for place in places]
        new = np.concatenate([sum(tab[c] * place for c, place in zip(cols, places)) for tab in tables] + [frontier[:0]])
        frontier = np.unique(new[~seen[new]])
        seen[frontier] = True
    return int(seen.sum())


# GL(3, 7) has 33,784,128 elements, a closure of about 50 s, so it is left out
@pytest.mark.parametrize(
    "p,n", [(p, n) for p in (2, 3, 5, 7) for n in range(4) if (p, n) != (7, 3)] + [(2, 4)]
)
def test_gl_generators_generate_general_linear(p, n):
    # the skeleton's generating morphisms and the orbit labels of
    # check_weak_noetherian rely on these generating GL(n, p) as a monoid
    gens = gl_generators(p, n)
    assert all(g.shape == (n, n) and rank(g, p) == n for g in gens)
    assert len(gens) <= 3
    assert (len(gens) == 0) == (n == 0 or (p, n) == (2, 1))
    order = 1
    for i in range(n):
        order *= p**n - p**i
    assert _generated_order(gens, p, n) == order


def test_map_key_codec_reads_both_layouts():
    m = np.array([[0, 10], [3, 1]])
    assert encode_entries(m) == "0.10.3.1"
    assert np.array_equal(decode_entries(encode_entries(m), 2, 2, 11), m)
    # keys written with one character per entry still read back
    assert np.array_equal(decode_entries("0111", 2, 2, 2), [[0, 1], [1, 1]])
    assert np.array_equal(decode_entries("7", 1, 1, 11), [[7]])
    empty = decode_entries("", 0, 3, 2)
    assert empty.shape == (0, 3) and empty.dtype == np.int64
    with pytest.raises(ValueError):
        decode_entries("0.1.1", 2, 2, 2)
    with pytest.raises(ValueError, match="has an entry outside 0..10"):
        decode_entries("0.11.3.1", 2, 2, 11)  # would alias the key 0.0.3.1


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


@pytest.mark.parametrize("p", [2, 3, 251])
def test_closure_matches_fixed_point_across_regimes(p, monkeypatch):
    # pieces of 6 to 40 coordinates, so increments are pushed in both
    # regimes of _extend
    rng = np.random.default_rng(400 + p)
    lists = _spy(monkeypatch, "_extend_lists")
    calls = _spy(monkeypatch, "_extend")
    for _ in range(6):
        dims = {k: int(rng.choice([6, 20, 40])) for k in range(3)}
        edges = []
        for i, j in ((0, 1), (1, 2), (2, 0), (1, 1)):
            m = rng.integers(0, p, size=(dims[j], dims[i]))
            edges.append((i, j, m * (rng.random(m.shape) < 0.05)))
        start = {0: rng.integers(0, p, size=(int(rng.integers(1, 4)), dims[0]))}
        got = closure(dims, edges, start, p)
        want = _closure_oracle(dims, edges, start, p)
        for k in dims:
            assert np.array_equal(got[k], want[k]), (dims, k)
    assert 0 < len(lists) < len(calls)


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


def _random_system(rng, p):
    """Unknowns of 0 to 3 rows and columns, the last key only ever a source,
    and equations whose maps are random with a random share of zero entries;
    a quarter of them are drawn with i == j."""
    nkeys = int(rng.integers(1, 5))
    shapes = {k: tuple(int(x) for x in rng.integers(0, 4, size=2)) for k in range(nkeys)}
    blocks = []
    for _ in range(int(rng.integers(0, 7))):
        j = int(rng.integers(0, max(1, nkeys - 1)))
        i = j if rng.random() < 0.25 else int(rng.integers(0, nkeys))
        (ri, ci), (rj, cj) = shapes[i], shapes[j]
        density = rng.choice([0.1, 0.3, 0.7])
        a = rng.integers(0, p, size=(cj, ci)) * (rng.random((cj, ci)) < density)
        b = rng.integers(0, p, size=(rj, ri)) * (rng.random((rj, ri)) < density)
        blocks.append((i, j, a, b))
    return shapes, blocks


def test_intertwiner_space_matches_kronecker_oracle():
    rng = np.random.default_rng(18)
    proper = 0  # systems whose solutions are neither zero nor everything
    condensed = 0  # systems whose start has fewer rows than unknowns
    for p in (2, 3, 5):
        for _ in range(400):
            shapes, blocks = _random_system(rng, p)
            want = oracle_intertwiner_space(shapes, iter(blocks), p)
            start = generator_start(shapes, blocks, p)
            total = sum(r * c for r, c in shapes.values())
            assert start.shape[1] == total and rank(start, p) == len(start)
            got = intertwiner_space(shapes, iter(blocks), p)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert list(g) == list(w) == list(shapes)
                assert all(np.array_equal(g[k], w[k]) for k in shapes)
            proper += 0 < len(want) < total
            condensed += len(start) < total
    assert proper >= 300 and condensed >= 40


def test_generator_start_rows_agree_across_regimes(monkeypatch):
    # the carried extension builds the same rows as Python lists and as
    # numpy updates, which larger systems take
    rng = np.random.default_rng(27)
    systems = [(*_random_system(rng, p), p) for p in (2, 3, 5) for _ in range(100)]
    lists = [generator_start(shapes, blocks, p) for shapes, blocks, p in systems]
    monkeypatch.setattr(gf, "_LIST_CELLS", 0)
    for (shapes, blocks, p), want in zip(systems, lists):
        assert np.array_equal(generator_start(shapes, blocks, p), want), shapes


def test_intertwiner_space_reads_no_block_past_zero():
    def never():
        raise AssertionError("read although every unknown is empty")
        yield

    assert intertwiner_space({0: (0, 2), 1: (3, 0)}, never(), 2) == []
