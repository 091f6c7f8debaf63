"""Differential test of VecFunctor.mat against digests pinned before skeletal
morphisms became plain int64 matrices (they were LinearMaps then).

Each digest is the SHA-256 of F.mat(i, j, beta), shape then int64 bytes, for
every beta of every hom-set hom(i, j) inside the window, objects and maps in
the skeleton's order; the JSON digest is that of json.dumps of
functor_to_json.  The skeletons have window 3 over the plain (u = 0) and
rank-one (u = 1) bases at p = 2 and 3.
"""

import hashlib
import json

import numpy as np
import pytest

from functorlab import elcat as ec
from functorlab import sfunctor as sf
from functorlab import vfunctor as vf

PINNED = {
    "p2-u0-T2": "c2b353f989ad435e7e0c831c20ae4d7dfbc83bd2c6de29fdeb807e1672d57d42",
    "p2-u0-I": "9ebcbeaa6a4f78e5fc068a1ec0d7a147b8309f26674075c7f72c63cd61bebed9",
    "p2-u0-DT2": "a96b0740b043e1acc28766cf72a411ed517897049d4af603358034078107baf7",
    "p2-u0-TS": "bbe83d8b46d3fcb13e2664f3cc066f9c0e128826bf6b23db5321d724bb66cf86",
    "p2-u1-T2": "c904bc0394ee7b3f1aeac4f4429567949579fe5db5d327a3f9837c62051098a4",
    "p2-u1-I": "2a66fadfc64a27d9f9b7ad21a1a8d05d4851f13451bb1e91e0cdc91986d9435a",
    "p2-u1-DT2": "5ee3e10d6269a9b7df5ea72e7b51a89e91fd0e8a52adde607ab6e7251db7eee8",
    "p2-u1-TS": "bd0e6a76e48187b281028d5cf5784e240be33113c4ec2cf10c39751014d2d0e6",
    "p2-json-T2": "aca9d94c98bdd15f464c4f510febccdda705fcb4513ec0c4a7cc15bc57e439eb",
    "p3-u0-T2": "f8aaa87bf431e3d1b387857fe624376894014fcda7c6af3ce76609357f3851e7",
    "p3-u0-I": "19ecb4de1e1f9af734bf0940ff49c10cd8c9714a280aa6fd5e869c53a650c33e",
    "p3-u0-DT2": "e1d73535279af2bff38a733728fd37216e2297fbbb6551df976943b15cf6e52d",
    "p3-u0-TS": "d2604106461f73e618932dd7306e90ba54add1357a207d0c35acf097f232f5c1",
    "p3-u1-T2": "929856a78df7b9a0cf0434c686bc3301540019650ce1f63260692101b6dd18dd",
    "p3-u1-I": "224eb27326d02bbf8a7c0a5f521e124d71565078a0cdcc2bb961eed6828db8ae",
    "p3-u1-DT2": "9b412938fcb75e5806c484c0f8386e915a63abf42c614edee6b77981bddb4929",
    "p3-u1-TS": "bbf55ab8a5e9ade8cadc8f6ab807b9b6da42aeb5a615ed5680aae9da98946941",
    "p3-json-T2": "e77860d6e8795c41e00b9bfd63ecd3c75abba53bb84d66be209a4a0766c69ef6",
}


def functors(sk):
    """T^2, the injective cogenerator at (0, 1), the difference of T^2 and the
    balanced tensor of the second difference module of T^2."""
    T2 = vf.forgetful_lift(sk, vf.TensorPower(2, sk.p))
    yield "T2", T2
    yield "I", vf.injective_cogen(sk, sk.index[(0, 1)])
    yield "DT2", vf.delta_bar(T2)
    yield "TS", vf.tensor_sigma_n(sk, vf.delta_n_sigma(T2, 2), 2)


def mat_digest(F):
    h = hashlib.sha256()
    for i in F.object_indices():
        for j in F.object_indices():
            for beta in F.sk.hom(i, j):
                m = F.mat(i, j, beta)
                h.update(np.array(m.shape, dtype=np.int64).tobytes())
                h.update(np.ascontiguousarray(m, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("p,u", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_mat_digests_match_pinned(p, u):
    sk = ec.Skeleton(sf.RepresentableFunctor(p, u, 3), window=3)
    for name, F in functors(sk):
        assert F.total_dim() > 0
        assert mat_digest(F) == PINNED[f"p{p}-u{u}-{name}"], name


@pytest.mark.parametrize("p", [2, 3])
def test_functor_json_digest_matches_pinned(p):
    sk = ec.Skeleton(sf.RepresentableFunctor(p, 0, 3), window=3)
    doc = vf.functor_to_json(vf.forgetful_lift(sk, vf.TensorPower(2, p)))
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == PINNED[f"p{p}-json-T2"]
