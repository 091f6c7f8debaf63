"""Exact linear algebra over a prime field, the substrate for everything else.

Run:  python3 demos/01_exact_linear_algebra.py
"""

import numpy as np

from functorlab.gf import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    general_linear,
    kernel_space,
    pivot_complement,
    preimage,
    proj_with_kernel,
    rref,
    rref_bits,
    rref_dense,
)

print("== row reduction over F_2 ==")
m = np.asarray([[1, 1], [1, 1]])
r, pivots = rref(m, 2)
print(f"rref of {m.tolist()} is {r.tolist()} with pivot columns {pivots}")

print()
print("== the bit-packed path computes the same canonical form ==")
rng = np.random.default_rng(0)
wide = rng.integers(0, 2, size=(6, 70))
packed, piv_b = rref_bits(wide)
dense, piv_d = rref_dense(wide, 2)
print(f"packed and dense agree on a 6x70 matrix: {np.array_equal(packed, dense) and piv_b == piv_d}")

print()
print("== kernels, preimages, canonical complements ==")
f = np.array([[1, 0], [0, 0]])
print(f"kernel of {f.tolist()}: {kernel_space(f, 2).basis_arr.tolist()}")
line = Subspace.from_vectors([[1, 0]], 2, 2)
print(f"preimage of the first axis under the same map: dim {preimage(f, line).dim} (the whole plane)")

u = Subspace.from_vectors([[1, 1]], 2, 2)
comp = pivot_complement(u)
print(f"the diagonal line has pivot complement {comp.basis_arr.tolist()}")
proj, sect = proj_with_kernel(u)
print(f"its canonical projection {proj.tolist()} satisfies proj @ section = identity: {np.array_equal(proj @ sect % 2, np.eye(1))}")

print()
print("== enumeration in a fixed deterministic order ==")
subs = enumerate_subspaces(2, 2)
print(f"F_2^2 has {len(subs)} subspaces (zero, three lines, the plane)")
count = sum(gaussian_binomial(3, k, 2) for k in range(4))
print(f"F_2^3 has {len(enumerate_subspaces(2, 3))} subspaces; the Gaussian-binomial sum says {count}")
gl2 = general_linear(2, 2)
print(f"GL_2(F_2) has {len(gl2)} elements, the first being {gl2[0].tolist()}")
