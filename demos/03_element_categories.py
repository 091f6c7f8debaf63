"""The category of elements, its regular-class skeleton, and hom-set structure.

Run:  python3 demos/03_element_categories.py
"""

import numpy as np

from functorlab.gf import inverse
from functorlab import elcat as ec
from functorlab import sfunctor as sf

print("== skeleton of the category of elements of S = Hom(-, F_2^2) ==")
S = sf.RepresentableFunctor(2, 2, 3)
sk = ec.Skeleton(S)
R = sk.rector
print(f"regular classes: {[(c.dim, c.index) for c in R.classes]}")
print(f"automorphism group orders: {[len(a) for a in R.aut_groups]}")
print(f"skeletal objects (class, trivial dim): {[(o.rclass, o.vdim) for o in sk.objects]}")

print()
print("== decomposition into a regular part and a trivial block ==")
m = np.array([[1, 0], [0, 0]])
o = next(e for e in S.elements(2) if np.array_equal(S.element_map(e), m))
t, u, iso = ec.decompose(S, o)
print(f"target of the iso has regular part of dim {t.dim} and kernel {u.basis_arr.tolist()}")
target = ec.ElObject(o.dim, sf.boxplus(S, t, u.dim).index)
both_ways = S.act(iso, target) == o and S.act(inverse(iso, 2), o) == target
print(f"the witness {iso.tolist()} is a morphism both ways: {both_ways}")

print()
print("== every skeletal morphism is block lower triangular ==")
idx = sk.index[(1, 1)]  # a one-dimensional regular class padded by one direction
print(f"hom-set at that object has {len(sk.hom(idx, idx))} elements")
print(f"equals the block-triangular set exactly: {ec.verify_block_form(S, sk, idx, idx)}")
print(f"cardinality factorization |regular hom| * p^((w+u)v): {ec.hom_factorization_holds(S, sk, idx, idx)}")
gamma = sk.hom(idx, idx)[3]
f, g, h, zero_top_right = sk.blocks(idx, idx, gamma)
print(f"sample morphism {gamma.tolist()} splits into f={f.tolist()}, g={g.tolist()}, h={h.tolist()}")

print()
print("== morphisms between regular pairs are injective ==")
ok, _ = ec.check_injectivity(S, R)
print(f"checked across the whole cap: {ok}")

print()
print("== a base with symmetry: orbits under the full invertible group ==")
gens = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 1]])]
O = sf.OrbitFunctor(2, 2, gens, 3)
skO = ec.Skeleton(O)
print(f"class dims {[c.dim for c in skO.rector.classes]}, aut orders {[len(a) for a in skO.rector.aut_groups]}")
print("the top class keeps all six invertibles as automorphisms")
