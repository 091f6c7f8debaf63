"""End to end: enumerate the simple functors on a window and certify them.

Every simple functor is pinned by a regular class, a degree n, and a simple
module of the class automorphisms times the degree-n symmetric group: build
the balanced tensor of the module, quotient away the greatest lower-degree
subfunctor, certify simplicity, and difference back to recover the module.

Run:  python3 demos/06_classifying_simples.py
"""

from functorlab import elcat as ec
from functorlab import modrep as mr
from functorlab import sfunctor as sf
from functorlab import simples as sp
from functorlab import vfunctor as vf

print("== base S = Hom(-, F_2), window 4, degrees up to 2 ==")
sk = ec.Skeleton(sf.RepresentableFunctor(2, 1, 4))
descs = sp.enumerate_simples(sk, 2, seed=0)
print(f"{len(descs)} simple functors:")
for d in descs:
    dims = [x[2] for x in d.value_dims()]
    parts, copies = d.multiplicity
    print(
        f"  class {d.rector_class} (dim {sk.rector.classes[d.rector_class].dim}), degree {d.n}, "
        f"module dim {d.module.dim} = {copies} x partition {parts}; value dims {dims}"
    )

print()
print("== each output earns its certificates ==")
d = descs[-1]
ok, _ = sp.certify_simple(d.realization)
supp, _ = sp.support_check(d.realization)
deg, _ = vf.polynomial_degree(d.realization, max_degree=d.n)
G = vf.aut_sigma_group(sk, d.rector_class, d.n)
back = sp.delta_n_module(d.realization, d.n, d.rector_class, G)
print(f"simple on the window: {ok}; single-class support: {supp == d.rector_class}; exact degree: {deg == d.n}")
print(f"differencing recovers the module: {mr.iso_modules(back, d.module)}")

print()
print("== what fails without the quotient ==")
n = 2
Gq = vf.aut_sigma_group(sk, 0, n)
M = vf.sigma_functor_from_module(sk, 0, n, mr.trivial_module(Gq, 2))
TM = vf.tensor_sigma_n(sk, M, n)
print(f"balanced tensor of the trivial module has dims {[TM.dim(i) for i in TM.object_indices()]}")
lower = vf.p_n(TM, n - 1, known_degree_bound=n)
print(f"its greatest degree-<=1 subfunctor has dims {[lower.bases[i].shape[0] for i in TM.object_indices()]}")
ok, _ = sp.certify_simple(TM)
print(f"so the unquotiented tensor is simple: {ok} (the witness sits inside that subfunctor)")

print()
print("== the quotient-equivalence diagnostics on a sample ==")
F = vf.forgetful_lift(sk, vf.TensorPower(2, 2), window=3)
print(sp.verify_quotient_equivalence(F, 2))

print()
print("== constant base: the classical classification up to degree 3 ==")
sk0 = ec.Skeleton(sf.RepresentableFunctor(2, 0, 4))
for d in sp.enumerate_simples(sk0, 3, seed=0):
    print(f"  degree {d.n}, partition {d.multiplicity[0]}: value dims {[x[2] for x in d.value_dims()]}")
