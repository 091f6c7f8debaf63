"""Finite-set-valued functors, element kernels and noetherianity reports.

Run:  python3 demos/02_set_functors_and_kernels.py
"""

import numpy as np

from functorlab import sfunctor as sf

print("== the representable functor S(W) = Hom(W, F_2^2), capped at dimension 3 ==")
S = sf.RepresentableFunctor(2, 2, 3)
print(f"set sizes per dimension: {[S.size(d) for d in range(4)]}")
print(f"functor laws validate: {bool(sf.validate(S))}")

print()
print("== the kernel of an element: the largest trivial-direction subspace ==")
m = np.array([[1, 0], [0, 0]])
s = next(e for e in S.elements(2) if np.array_equal(S.element_map(e), m))
ker = sf.kernel_of(S, s)
print(f"the element {m.tolist()} of S(F_2^2) has kernel {ker.basis_arr.tolist()}")
t = sf.tilde(S, s)
print(f"its regular reduction lives in dimension {t.dim} and is {S.element_map(t).tolist()}")
print(f"regular elements per dimension: {[len(sf.regular_set(S, d)) for d in range(4)]}")

print()
print("== noetherianity: the certificate and a crafted counterexample ==")
print(f"S_U satisfies the kernel-preimage condition: {bool(sf.check_weak_noetherian(S))}")
noeth = sf.check_noetherian(S)
print(f"regular elements vanish above dimension {noeth.last_regular_dim} (cap {noeth.window})")

K = sf.kernel_mismatch_example()
print(f"the crafted table is still a functor: {bool(sf.validate(K))}")
bad = sf.check_weak_noetherian(K)
alpha, elt, lhs, rhs = bad.witness
print(f"but ker(alpha^* s) != alpha^inv(ker s) at alpha = {alpha.tolist()}, s = {tuple(elt)}:")
print(f"  kernel of the pullback has dim {lhs.dim}, preimage of the kernel has dim {rhs.dim}")

print()
print("== subspace functor: weakly noetherian but regular elements never vanish ==")
Sub = sf.SubspaceFunctor(2, 3)
print(f"condition holds: {bool(sf.check_weak_noetherian(Sub))}")
print(f"regular counts: {sf.check_noetherian(Sub).regular_counts} (the zero subspace is always regular)")

print()
print("== connectedness and the box-sum ==")
print(f"S_U is connected: {sf.is_connected(S)}")
psi = next(e for e in S.elements(2) if np.array_equal(S.element_map(e), np.eye(2)))
res = sf.boxplus(S, psi, 1, check_unique=True)
print(f"the identity element padded by one trivial direction: {S.element_map(res).tolist()}")
both = sf.disjoint_union(S, S)
print(f"a disjoint union splits into {len(sf.split_components(both))} components")
