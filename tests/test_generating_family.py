"""The skeleton's small generating family against the family it replaced.

Every consumer of ``Skeleton.generating_morphisms`` needs only that the
family generates the skeleton as a monoid, and its answers are canonical
(RREF bases, closures, verdicts), so any two generating families must give
the same answers.  The oracle is the old family: every elementary invertible
of each GL_v and every elementary shear."""

import numpy as np
import pytest

from functorlab import elcat as ec
from functorlab import sfunctor as sf
from functorlab import simples as sp
from functorlab import vfunctor as vf
from functorlab.gf import elementary_invertibles, rref


def old_family(sk):
    """Projections, inclusions, the elementary invertibles of each GL_v,
    every elementary shear, class morphisms and class automorphisms."""
    gens = []
    for a in sk.objects:
        r, v = a.rclass, a.vdim
        eye_w, eye_v = np.eye(a.wdim, dtype=np.int64), np.eye(v, dtype=np.int64)
        if (r, v + 1) in sk.index:
            gens.append((sk.index[(r, v + 1)], a.index, sk.proj_one(r, v)))
            gens.append((a.index, sk.index[(r, v + 1)], sk.incl_one(r, v)))
        for h in elementary_invertibles(sk.p, v):
            gens.append((a.index, a.index, sk._diag(eye_w, h)))
        for pos in range(a.wdim * v):
            fb = np.zeros(a.wdim * v, dtype=np.int64)
            fb[pos] = 1
            gens.append((a.index, a.index, sk.shear(r, v, fb.reshape(v, a.wdim))))
        for b in sk.objects:
            if b.vdim == v and b.rclass != r:
                gens += [(a.index, b.index, sk._diag(f, eye_v)) for f in sk.rector_hom(r, b.rclass)]
        for f in sk.rector.aut_groups[r]:
            if not np.array_equal(f, eye_w):
                gens.append((a.index, a.index, sk._diag(f, eye_v)))
    for _, _, g in gens:
        g.setflags(write=False)
    return gens


@pytest.fixture(scope="module", params=[0, 1], ids=["plain", "rank-one"])
def skeletons(request):
    """(new family, old family) skeletons of one base at window 3."""
    S = sf.RepresentableFunctor(2, request.param, 3)
    new, old = ec.Skeleton(S), ec.Skeleton(S)
    old._generators = old_family(old)
    assert len(new.generating_morphisms()) < len(old.generating_morphisms())
    return new, old


def functors(sk):
    T1 = vf.forgetful_lift(sk, vf.TensorPower(1, 2))
    T2 = vf.forgetful_lift(sk, vf.TensorPower(2, 2))
    return {
        "T1": T1,
        "T2": T2,
        "T3": vf.forgetful_lift(sk, vf.TensorPower(3, 2)),
        "const": vf.constant_functor(sk),
        "cogen": vf.injective_cogen(sk, sk.index[(0, 1)]),
        "T1+T2": vf.direct_sum(T1, T2),
        "T2/p1": vf.quotient_functor(T2, vf.p_n(T2, 1)),
    }


def both(skeletons, answer):
    """answer(functors of a skeleton) on the new and the old family."""
    return [answer(functors(sk)) for sk in skeletons]


def same_bases(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_generated_subfunctors_agree(skeletons):
    def generated(Fs):
        rng = np.random.default_rng(5)
        out = []
        for F in Fs.values():
            for i in F.object_indices():
                if F.dim(i):
                    vecs = rng.integers(0, 2, size=(1, F.dim(i)))
                    out.append(vf.generated_subfunctor(F, i, vecs).bases)
        return out

    new, old = both(skeletons, generated)
    assert len(new) == len(old) and all(same_bases(a, b) for a, b in zip(new, old))


def test_p_n_agrees(skeletons):
    def filtrations(Fs):
        return [vf.p_n(F, n).bases for F in Fs.values() for n in (0, 1)]

    new, old = both(skeletons, filtrations)
    assert all(same_bases(a, b) for a, b in zip(new, old))
    assert any(b.shape[0] for bases in new for b in bases.values())


def test_nat_spaces_agree(skeletons):
    def spaces(Fs):
        pairs = [("T1", "T1"), ("T2", "T2"), ("const", "T2"), ("T2", "cogen"), ("T1+T2", "T1+T2"), ("T2/p1", "T2")]
        return [[t.mats for t in vf.nat_space(Fs[a], Fs[b])] for a, b in pairs]

    new, old = both(skeletons, spaces)
    assert [len(s) for s in new] == [len(s) for s in old]
    assert all(same_bases(a, b) for s, t in zip(new, old) for a, b in zip(s, t))


def test_is_stable_verdicts_agree(skeletons):
    def verdicts(Fs):
        rng = np.random.default_rng(7)
        out = []
        for F in Fs.values():
            families = [vf.p_n(F, 1), vf.random_subfunctor(F, rng)]
            for _ in range(6):
                bases = {}
                for i in F.object_indices():
                    r, piv = rref(rng.integers(0, 2, size=(int(rng.integers(0, F.dim(i) + 1)), F.dim(i))), 2)
                    bases[i] = r[: len(piv)]
                families.append(vf.SubFunctor(F, bases))
            # a stable family with one value cut back: stable only if nothing maps into it
            sub = vf.p_n(F, 1)
            top = max(sub.bases, key=lambda i: sub.bases[i].shape[0])
            families.append(vf.SubFunctor(F, {**sub.bases, top: sub.bases[top][1:]}))
            out.append([s.is_stable() for s in families])
        return out

    new, old = both(skeletons, verdicts)
    assert new == old
    assert any(any(v) for v in new) and not all(all(v) for v in new)


def test_certify_simple_verdicts_agree(skeletons):
    def verdicts(Fs):
        simples = [d.realization for d in sp.enumerate_simples(Fs["T1"].sk, 2)]
        return [d.dims_list() for d in simples], [sp.certify_simple(F)[0] for F in [*Fs.values(), *simples]]

    new, old = both(skeletons, verdicts)
    assert new == old and any(new[1]) and not all(new[1])


def broken_off_generators(sk):
    """U(T^1) with F(gamma0) = I for one endomorphism gamma0 of a dim-2
    object that is neither an identity nor in either family: right on every
    generator of both, wrong as a functor."""
    gens = {(i, j, g.tobytes()) for fam in (sk.generating_morphisms(), old_family(sk)) for i, j, g in fam}
    o = next(o for o in sk.objects if o.dim == 2)
    gamma0 = next(
        g for g in sk.hom(o.index, o.index)
        if (o.index, o.index, g.tobytes()) not in gens and not np.array_equal(g, sk.identity(o.index))
    )
    key = (o.index, o.index, gamma0.tobytes())

    def rule(i, j, g):
        return np.eye(g.shape[1], dtype=np.int64) if (i, j, g.tobytes()) == key else g

    return vf.VecFunctor(sk, 3, {a.index: a.dim for a in sk.objects}, rule, name="broken")


def test_validate_verdicts_agree(skeletons):
    def verdicts(Fs):
        sk = Fs["T1"].sk
        return [F.validate() for F in Fs.values()] + [broken_off_generators(sk).validate()]

    new, old = both(skeletons, verdicts)
    assert new == old and all(new[:-1]) and not new[-1]


@pytest.mark.parametrize("builtin", ["representable", "orbit", "subspaces"])
@pytest.mark.parametrize("p,u_dim", [(2, 1), (2, 2), (3, 1)])
def test_orbit_representatives_agree(builtin, p, u_dim, monkeypatch):
    S = sf.from_builtin_spec({"type": builtin, "p": p, "U_dim": u_dim}, cap=3)
    new = [sf._orbit_representatives(S, m) for m in range(4)]
    monkeypatch.setattr(sf, "gl_generators", elementary_invertibles)
    old = [sf._orbit_representatives(S, m) for m in range(4)]
    assert all(np.array_equal(a, b) for a, b in zip(new, old))
    assert sum(len(r) for r in new) < sum(S.size(m) for m in range(4))
