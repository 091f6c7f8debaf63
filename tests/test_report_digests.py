"""Differential test of the reports that print matrices against digests
pinned before maps became plain int64 arrays (they were gf.LinearMaps then).

Each digest is the SHA-256 of one CLI call's stdout, a NUL, its stderr, a
NUL and its exit code.  The calls print automorphism groups (rector's
aut_elements), matrix witnesses (check-noetherian on the kernel-mismatch
table, validate) and reports whose order follows the numbering of Aut x
Sym(n) (the orbit spec, whose class 2 has |Aut| = 6).  The two p = 3 runs,
the classification up to degree 4 and the simple modules of Sym(5), were
pinned before gf.rref_dense chose its regime by shape; their eliminations are
large and dense.  Three cases must also give their digests with every gf
kernel held in one regime, numpy arrays or Python lists.
"""

import hashlib
import json

import pytest

from functorlab import cli, gf
from functorlab import sfunctor as sf

ORBIT = {"type": "orbit", "p": 2, "U_dim": 2, "cap": 3, "gamma_generators": [[[0, 1], [1, 0]], [[1, 1], [0, 1]]]}

CASES = {
    "rector-u1": ["--u-dim", "1", "--cap", "4", "rector"],
    "rector-u2": ["--u-dim", "2", "--cap", "4", "rector"],
    "rector-u3": ["--u-dim", "3", "--cap", "4", "rector"],
    "kernel-mismatch": ["--builtin", "kernel-mismatch", "check-noetherian"],
    "validate-identity": ["--input", "{ident}", "validate"],
    "validate-composition": ["--input", "{compose}", "validate"],
    "verify-theorems": ["--u-dim", "1", "--cap", "4", "--n-max", "2", "--seed", "1", "verify-theorems"],
    "orbit-rector": ["--input", "{orbit}", "rector"],
    "orbit-autsym": ["--input", "{orbit}", "simples-of-group", "--group", "autsym:2,2"],
    "orbit-enumerate": ["--input", "{orbit}", "--n-max", "1", "enumerate-simples"],
    "orbit-verify": ["--input", "{orbit}", "--n-max", "1", "verify-theorems"],
    "enumerate-p3": ["--p", "3", "--u-dim", "0", "--cap", "5", "--n-max", "4", "--seed", "1", "enumerate-simples"],
    "sym5-p3": ["--p", "3", "--seed", "1", "simples-of-group", "--group", "sym:5"],
}

PINNED = {  # case -> (exit code, digest)
    "enumerate-p3": (0, "4541d2f04b2d8085db026c0f798f8abceb7f79f840965f76794a590ebcc4c1d7"),
    "kernel-mismatch": (1, "f0403ac28038b7faa8f41e351c1e1d8d5b1b4b6bf95e98f9a6e8665c7894d9e0"),
    "orbit-autsym": (0, "31f46e5c0f8c091f1879a79e7c6eb320d85ab082c6ae2354c97baf406ce24450"),
    "orbit-enumerate": (0, "60f5d1a8dfbdac0f12a0f666c09db44d5b4723dac0c1ffe9d49b2b8452a6d072"),
    "orbit-rector": (0, "90de927ea30ade8df8409b1c8717c2891e9d1c31f16fbc7a65b62f8120d93dc5"),
    "orbit-verify": (0, "2e5cc210bb348e753b16ae24aeb4de76222db7edb882135fc004e8f3267b48c0"),
    "rector-u1": (0, "c4dccc577d0f4a95016a691210c62101a98271369c9f8e574587dd7b3e4d6936"),
    "rector-u2": (0, "81228c090ec43b49a4946cf80ba507c68e0958174dccc5258c528f89a3c8bc72"),
    "rector-u3": (0, "9f6b0a3d559f577de63dc95b9e2d2dcb9f17449c395195096d763bd40ad5277a"),
    "sym5-p3": (0, "6844ea0dc51cd3347ab9f30a7183cb1de8e9d803171f929aa5e97f628ac24ab0"),
    "validate-composition": (1, "0f5cd982085579bd9c79c571a6c1b2a915f74dcbc36b4c498925275647702d2d"),
    "validate-identity": (1, "f3432fcef7a4a28868ab005a69209e7cf57f3b7bf5440d127c81fe4648391992"),
    "verify-theorems": (0, "ded1df3e886e66b3e5f1aef29b69f7c5760c94b4b59f18b9ad65dbee738946b9"),
}


def write_inputs(tmp_path) -> dict:
    """The orbit spec and two tables of RepresentableFunctor(2, 1, .) that
    break a law: the identity of F^1 swaps the elements of S(1) in one, and
    the pullback along [1 1] swaps those of S(2) in the other."""
    ident = sf.to_json_dict(sf.RepresentableFunctor(2, 1, 3))
    ident["action"]["1x1:1"].reverse()
    compose = sf.to_json_dict(sf.RepresentableFunctor(2, 1, 2))
    compose["action"]["1x2:1.1"][:2] = compose["action"]["1x2:1.1"][1::-1]
    paths = {}
    for name, doc in (("ident", ident), ("compose", compose), ("orbit", ORBIT)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_matches_pinned(tmp_path, capsys, case):
    paths = write_inputs(tmp_path)
    code = cli.main([arg.format(**paths) for arg in CASES[case]])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(f"{out}\0{err}\0{code}".encode()).hexdigest()) == PINNED[case]


@pytest.mark.parametrize("cells", [0, 10**9])
@pytest.mark.parametrize("case", ["rector-u1", "rector-u2", "verify-theorems"])
def test_report_digest_holds_in_one_regime(capsys, monkeypatch, case, cells):
    # every kernel with a list regime runs numpy only (0) or lists only (10^9)
    monkeypatch.setattr(gf, "_LIST_CELLS", cells)
    code = cli.main(CASES[case])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(f"{out}\0{err}\0{code}".encode()).hexdigest()) == PINNED[case]
