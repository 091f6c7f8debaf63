"""Command-line contract: exit codes, formats, file interchange, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from functorlab import cli, elcat, sfunctor, simples, vfunctor


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_demo_rector_five_classes(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "2", "--p", "2", "--cap", "3", "demo", "rector"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0 and doc["ok"]
    assert len(doc["classes"]) == 5
    assert all(c["aut_order"] == 1 for c in doc["classes"])


def test_validate_builtin(capsys):
    code, out = run_cli(["--builtin", "representable", "--u-dim", "1", "--cap", "2", "validate"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["ok"] and doc["witness"] is None


def test_validate_beyond_map_budget_exit_2(capsys):
    # validate needs every map F^cap -> F^cap; at cap 5 those are 2^25, over
    # the map budget, so it stops with an input error instead of sampling
    code = cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "5", "validate"])
    assert code == 2
    assert "budget 'maps' exceeded: needs 33554432, allows 1048576" in capsys.readouterr().err


def test_check_noetherian_counterexample_exit_code(capsys):
    code, out = run_cli(["--builtin", "kernel-mismatch", "--cap", "2", "check-noetherian"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert not doc["weakly_noetherian"]
    assert doc["witness"] is not None
    # the witness carries the map and the element
    assert any("matrix" in w for w in doc["witness"] if isinstance(w, dict))


def test_check_noetherian_certificate(capsys):
    code, out = run_cli(["--builtin", "representable", "--u-dim", "2", "--cap", "3", "check-noetherian"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["weakly_noetherian"]
    assert doc["regular_counts"] == [1, 3, 6, 0]


def test_degree_subcommand(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "0", "--cap", "3", "degree", "--functor", "tensor:2"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0 and doc["degree"] == 2


def test_delta_subcommand(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "0", "--cap", "3", "delta", "--functor", "constant"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["is_zero"]


def test_cross_effect_subcommand(capsys):
    code, out = run_cli(
        [
            "--builtin", "representable", "--u-dim", "0", "--cap", "3",
            "cross-effect", "--functor", "tensor:2", "--base", "0,0", "--blocks", "1,1",
        ],
        capsys,
    )
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["first_transposition_action"] == [[0, 1], [1, 0]]


def test_simples_of_group(capsys):
    code, out = run_cli(["simples-of-group", "--group", "sym:3"], capsys)
    doc = json.loads(out)
    assert [s["dim"] for s in doc["simples"]] == [1, 2]
    assert doc["accounting_ok"]


def test_enumerate_simples_subcommand(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "1", "--cap", "4", "--n-max", "2", "enumerate-simples"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 6


def test_verify_theorems_passes(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "1", "--cap", "4", "--n-max", "2", "verify-theorems"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0
    assert all(doc["suites"].values())


def test_verify_theorems_builds_each_counit_once(monkeypatch, capsys):
    # the adjunction and quotient-equivalence suites share the counit of
    # each tensor lift T^n, so no (functor, n) pair is built twice
    built = []  # holds each F, so no two of them share an id
    counit = vfunctor.counit

    def recording(F, n):
        built.append((F, n))
        return counit(F, n)

    monkeypatch.setattr(vfunctor, "counit", recording)
    code, out = run_cli(["--u-dim", "1", "--cap", "4", "--n-max", "2", "verify-theorems"], capsys)
    assert code == 0 and all(json.loads(out)["suites"].values())
    keys = [(id(F), n) for F, n in built]
    assert len(keys) == len(set(keys)) and {n for _, n in built} == {1, 2}


@pytest.mark.parametrize("u_dim,cap,n_max", [(1, 3, 2), (0, 3, 3), (1, 2, 1), (2, 3, 1)])
def test_verify_theorems_passes_when_the_window_skips_pairs(u_dim, cap, n_max, capsys):
    # the classification suite counts only the (class, degree) pairs the
    # window can certify, the ones enumerate-simples runs
    code, out = run_cli(
        ["--u-dim", str(u_dim), "--cap", str(cap), "--n-max", str(n_max), "verify-theorems"], capsys
    )
    doc = json.loads(out)
    assert code == 0 and all(doc["suites"].values()), doc["suites"]


@pytest.mark.parametrize("p,found", [(2, 5), (3, 6)])
def test_verify_theorems_to_degree_3_on_the_plain_base(p, found, capsys):
    # the degree-3 naturality systems of the adjunction suite have 4,890
    # unknowns at p = 2; nat_space solves them from their generators
    code, out = run_cli(
        ["--p", str(p), "--builtin", "representable", "--u-dim", "0", "--cap", "4", "--n-max", "3", "--seed", "1",
         "verify-theorems"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0 and len(doc["suites"]) == 8 and all(doc["suites"].values()), doc["suites"]
    assert doc["simples_found"] == found


def test_oversize_balanced_tensor_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(vfunctor, "MAX_RELATION_CELLS", 15)
    assert cli.main(["--u-dim", "0", "--cap", "3", "--n-max", "2", "enumerate-simples"]) == 2
    assert "budget 'relation matrix cells' exceeded" in capsys.readouterr().err


def test_oversize_balanced_tensor_refused_before_the_first_task(monkeypatch, capsys):
    # the n = 5 task needs 4 (6^5)^2 cells at module dimension 1; no task runs
    monkeypatch.setattr(simples, "_simples_for_class_degree", None)
    assert cli.main(["--u-dim", "0", "--cap", "6", "--n-max", "5", "enumerate-simples"]) == 2
    assert "needs 241864704, allows 33554432" in capsys.readouterr().err


def test_oversize_hom_functor_matrix_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(vfunctor, "MAX_RELATION_CELLS", 1000)
    assert cli.main(["--u-dim", "0", "--cap", "3", "degree", "--functor", "cogen:0,3"]) == 2
    assert "budget 'hom matrix cells' exceeded" in capsys.readouterr().err


def test_markdown_rendering(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "1", "--cap", "2", "--format", "markdown", "rector"],
        capsys,
    )
    assert code == 0 and out.startswith("# rector")
    assert "aut_order" in out


def test_reports_byte_identical_same_seed(tmp_path, capsys):
    argsets = [
        ["--builtin", "representable", "--u-dim", "1", "--cap", "3", "--seed", "42",
         "--output", str(tmp_path / f"r{i}.json"), "enumerate-simples"]
        for i in (0, 1)
    ]
    for a in argsets:
        assert cli.main(a) == 0
    a = (tmp_path / "r0.json").read_bytes()
    b = (tmp_path / "r1.json").read_bytes()
    assert a == b


def test_reports_embed_window_and_config(capsys):
    code, out = run_cli(
        ["--builtin", "representable", "--u-dim", "1", "--cap", "3", "enumerate-simples"], capsys
    )
    doc = json.loads(out)
    assert doc["config"]["seed"] == 0 and doc["config"]["cap"] == 3
    assert all(row["window"] == 3 for row in doc["simples"])


def test_sfunctor_json_input_roundtrip(tmp_path, capsys):
    from functorlab import sfunctor as sf

    S = sf.RepresentableFunctor(2, 1, 2)
    (tmp_path / "s.json").write_text(json.dumps(sf.to_json_dict(S)))
    code, out = run_cli(["--input", str(tmp_path / "s.json"), "validate"], capsys)
    assert code == 0 and json.loads(out)["ok"]


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["--input", str(bad), "validate"])
    assert code == 2


def test_malformed_functor_file_names_the_file(tmp_path, capsys):
    # --functor file: reads JSON as --input does: path:line:col: message
    bad = tmp_path / "F.json"
    bad.write_text("{nope")
    argv = ["--u-dim", "1", "--cap", "2", "degree", "--functor", f"file:{bad}"]
    assert cli.main(argv) == 2
    assert f"{bad}:1:2: Expecting property name enclosed in double quotes" in capsys.readouterr().err
    assert cli.main(["--input", str(bad), "validate"]) == 2
    assert f"{bad}:1:2: Expecting property name enclosed in double quotes" in capsys.readouterr().err


def test_budget_exceeded_exit_2(capsys):
    code = cli.main(
        ["--builtin", "representable", "--u-dim", "2", "--cap", "3", "--budget-maps", "4", "rector"]
    )
    assert code == 2


def test_vfunctor_json_roundtrip(tmp_path, capsys):
    save = tmp_path / "f.json"
    code, out1 = run_cli(
        ["--builtin", "representable", "--u-dim", "0", "--cap", "3",
         "degree", "--functor", "tensor:2", "--save-functor", str(save)],
        capsys,
    )
    assert code == 0 and save.exists()
    assert json.loads(out1)["degree"] == 2
    code2, out2 = run_cli(
        ["--builtin", "representable", "--u-dim", "0", "--cap", "3",
         "degree", "--functor", f"file:{save}"],
        capsys,
    )
    doc = json.loads(out2)
    assert code2 == 0 and doc["degree"] == 2


@pytest.mark.parametrize("command,times", [("degree", None), ("delta", "2")])
def test_save_functor_writes_sorted_json(tmp_path, capsys, command, times):
    save = tmp_path / "F.json"
    base = ["--builtin", "representable", "--u-dim", "0", "--cap", "3"]
    extra = ["--times", times] if times else []
    assert cli.main([*base, command, "--functor", "tensor:2", *extra, "--save-functor", str(save)]) == 0
    capsys.readouterr()
    sk = elcat.Skeleton(sfunctor.RepresentableFunctor(2, 0, 3))
    F = cli.resolve_functor(sk, "tensor:2")
    if times:
        F = vfunctor.delta_bar_power(F, int(times))
    assert save.read_text() == json.dumps(vfunctor.functor_to_json(F), sort_keys=True)


def test_seeded_commands_leave_numpy_random_unloaded():
    # the seeded streams come from the stdlib random module; numpy.random
    # would pull in secrets, hashlib and OpenSSL, several MB per process
    src = str(Path(cli.__file__).resolve().parents[1])
    script = """
import os, sys
from functorlab import cli
for argv in (
    ["--u-dim", "1", "--cap", "3", "--n-max", "1", "verify-theorems"],
    ["--u-dim", "0", "--cap", "3", "--n-max", "2", "enumerate-simples"],
    ["--group", "sym:4", "simples-of-group"],
):
    assert cli.main([*argv, "--seed", "3", "--output", os.devnull]) == 0, argv
print(sorted(m for m in ("numpy.random", "hashlib") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab.cli", "--builtin", "representable", "--u-dim", "1",
         "--cap", "2", "validate"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_import_leaves_sympy_unloaded(tmp_path):
    # numpy is the only dependency: neither the import nor a run that factors
    # polynomials loads sympy; the set-functor commands load only the layers
    # they run, and the exit-2 exceptions are one class wherever imported from
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, functorlab.cli\n"
        "vector_layers = ['functorlab.vfunctor', 'functorlab.modrep', 'functorlab.simples']\n"
        "print('sympy' in sys.modules, any(m in sys.modules for m in vector_layers))\n"
        "for command in ('rector', 'check-noetherian'):\n"
        "    code = functorlab.cli.main(['--cap', '3', '--output', sys.argv[1], command])\n"
        "    print(code, any(m in sys.modules for m in vector_layers))\n"
        "code = functorlab.cli.main(['--p', '3', '--output', sys.argv[1], 'simples-of-group', '--group', 'sym:4'])\n"
        "print(code, 'sympy' in sys.modules)\n"
        "from functorlab import gf, modrep, vfunctor\n"
        "print(vfunctor.WindowExceeded is gf.WindowExceeded, modrep.SplittingFailure is gf.SplittingFailure)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "0", "False", "0", "False", "0", "False", "True", "True"]


def test_jobs_flag_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "1", "rector", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_splitting_failure_exit_2(monkeypatch, capsys):
    from functorlab import modrep

    def fail(M, seed):
        raise modrep.SplittingFailure(f"no splitting decision after 60 tries (seed {seed})")

    monkeypatch.setattr(modrep, "_split", fail)
    assert cli.main(["--p", "3", "simples-of-group", "--group", "sym:3"]) == 2
    assert "error: no splitting decision after 60 tries (seed 0)" in capsys.readouterr().err


def test_orbit_builtin_via_input_and_autsym_group(tmp_path, capsys):
    spec = {
        "type": "orbit",
        "p": 2,
        "U_dim": 2,
        "cap": 2,
        "gamma_generators": [[[0, 1], [1, 0]], [[1, 1], [0, 1]]],
    }
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["--input", str(path), "rector"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert sorted(c["aut_order"] for c in doc["classes"]) == [1, 1, 6]
    code2, out2 = run_cli(
        ["--input", str(path), "simples-of-group", "--group", "autsym:2,1"], capsys
    )
    doc2 = json.loads(out2)
    assert code2 == 0 and doc2["order"] == 6
    assert [s["dim"] for s in doc2["simples"]] == [1, 2]


def test_shared_flags_accepted_after_subcommand(capsys):
    before = run_cli(
        ["--builtin", "representable", "--u-dim", "1", "--cap", "3", "check-noetherian"], capsys
    )
    after = run_cli(
        ["check-noetherian", "--builtin", "representable", "--u-dim", "1", "--cap", "3"], capsys
    )
    assert before[0] == after[0] == 0
    assert json.loads(before[1]) == json.loads(after[1])


def test_p_not_prime_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--p", "4", "simples-of-group", "--group", "sym:3"])
    assert exc.value.code == 2
    assert "p = 4 is not prime" in capsys.readouterr().err


def test_p_too_large_for_storage_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--p", "257", "--builtin", "representable", "--u-dim", "1", "--cap", "1", "rector"])
    assert exc.value.code == 2
    assert "exceeds 251" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--cap", "-1", "-1 is negative"),
        ("--u-dim", "-1", "-1 is negative"),
        ("--n-max", "-1", "-1 is negative"),
    ],
    ids=["cap", "u-dim", "n-max"],
)
def test_out_of_range_int_flag_rejected_at_parse_time(capsys, flag, value, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "1", flag, value, "rector"])
    assert exc.value.code == 2
    assert f"argument {flag}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--budget-maps", "0", "rector"], "argument --budget-maps: 0 is not positive"),
        (["--budget-group", "-3", "rector"], "argument --budget-group: -3 is not positive"),
        (["delta", "--times", "-1"], "argument --times: -1 is negative"),
        (["cross-effect", "--blocks", "0,-1"], "argument --blocks: -1 is negative"),
        (["cross-effect", "--base", "0,-1"], "argument --base: -1 is negative"),
        (["cross-effect", "--base", "1"], "argument --base: '1' is not 2 comma-separated ints"),
    ],
    ids=["budget-maps", "budget-group", "times", "blocks", "base", "base-arity"],
)
def test_malformed_subcommand_int_rejected_at_parse_time(capsys, args, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "2", *args])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_cross_effect_base_outside_skeleton_exit_2(capsys):
    # a well-formed base the skeleton lacks is an input error, not a counterexample
    code = cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "2", "cross-effect", "--base", "7,0"])
    assert code == 2
    assert "no object of class 7 with trivial dim 0" in capsys.readouterr().err


def test_cogen_outside_skeleton_exit_2(capsys):
    # an injective cogenerator at an object the skeleton lacks is an input
    # error, exit 2, not a counterexample, exit 1
    code = cli.main(["--cap", "2", "cross-effect", "--functor", "cogen:9,9"])
    assert code == 2
    assert "no object of class 9 with trivial dim 9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["simples-of-group", "--group", "autsym:9,1"], "the skeleton has no regular class 9 (it has 5)"),
        (["simples-of-group", "--group", "sym:-2"], "symmetric degree -2 is negative"),
        (["simples-of-group", "--group", "autsym:0,-1"], "autsym class and degree -1 is negative"),
        (["degree", "--functor", "cogen:0"], "cogen object '0' is not 2 comma-separated ints"),
        (["degree", "--functor", "constant:-1"], "constant dimension -1 is negative"),
        (["degree", "--functor", "constant:x"], "constant dimension invalid literal for int() with base 10: 'x'"),
        (["degree", "--functor", "symmetrizer:x"], "symmetrizer partition invalid literal for int() with base 10: 'x'"),
        (["degree", "--functor", "symmetrizer:"], "symmetrizer partition invalid literal for int() with base 10: ''"),
    ],
    ids=[
        "autsym-class", "sym-negative", "autsym-negative", "cogen-arity",
        "constant-negative", "constant-word", "symmetrizer-word", "symmetrizer-empty",
    ],
)
def test_malformed_spec_exit_2(capsys, args, reason):
    # the ints of --group and --functor specs are read like int flags, and a
    # class the skeleton lacks is an input error
    assert cli.main(["--cap", "2", *args]) == 2
    assert f"error: {reason}\n" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["sym:5", "autsym:0,5"])
def test_group_over_budget_rejected_before_it_is_built(monkeypatch, capsys, group):
    from functorlab import modrep

    def built(n):
        pytest.fail(f"Sym({n}) was built")

    monkeypatch.setattr(modrep.FiniteGroup, "symmetric", staticmethod(built))
    assert cli.main(["--cap", "2", "--budget-group", "100", "simples-of-group", "--group", group]) == 2
    assert "error: group order 120 exceeds budget 100\n" in capsys.readouterr().err


def test_negative_tensor_power_exit_2(capsys):
    code = cli.main(["--cap", "2", "degree", "--functor", "tensor:-1"])
    assert code == 2
    assert "tensor power -1 is negative" in capsys.readouterr().err


def test_rector_frontier_u3_cap4(capsys):
    # 16 classes against 218 regular elements; the pair loop took about a minute
    code, out = run_cli(["--builtin", "representable", "--u-dim", "3", "--cap", "4", "rector"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["all_regular_morphisms_injective"] is True
    assert len(doc["classes"]) == 16


def test_rector_frontier_u3_cap5(capsys):
    # 16 classes, one per subspace of F_2^3, over 37,449 elements; reading
    # their kernels from factorization tables took about 13 s
    code, out = run_cli(["--builtin", "representable", "--u-dim", "3", "--cap", "5", "rector"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["all_regular_morphisms_injective"] is True
    assert len(doc["classes"]) == 16


def test_rector_lists_each_class_hom_set_once(monkeypatch, capsys):
    # the report and the injectivity check share one stack per ordered class
    # pair, and no skeletal object with a trivial block is assembled
    from functorlab import elcat, sfunctor

    pairs, extra_dims = [], []
    real_hom_set, real_boxplus = elcat.hom_set, sfunctor.boxplus

    def hom_set(S, a, b, *rest):
        pairs.append((a, b))
        return real_hom_set(S, a, b, *rest)

    def boxplus(S, psi, extra_dim, *rest, **kwargs):
        extra_dims.append(extra_dim)
        return real_boxplus(S, psi, extra_dim, *rest, **kwargs)

    monkeypatch.setattr(elcat, "hom_set", hom_set)
    monkeypatch.setattr(elcat, "boxplus", boxplus)
    monkeypatch.setattr(sfunctor, "boxplus", boxplus)
    code, out = run_cli(["--u-dim", "2", "--cap", "4", "rector"], capsys)
    classes = json.loads(out)["classes"]
    assert code == 0 and len(classes) == 5
    assert len(pairs) == len(set(pairs)) == 25
    assert [v for v in extra_dims if v > 0] == []


def test_rector_refuses_a_disconnected_table(tmp_path, capsys):
    from functorlab import sfunctor as sf

    S = sf.RepresentableFunctor(2, 1, 2)
    U = sf.disjoint_union(S, S)
    assert U.size(0) == 2
    path = tmp_path / "U.json"
    path.write_text(json.dumps(sf.to_json_dict(U)))
    assert cli.main(["--input", str(path), "rector"]) == 2
    assert capsys.readouterr().err == "error: skeletons need a connected functor; split components first\n"


def _write_table(tmp_path, S, edit):
    from functorlab import sfunctor as sf

    doc = sf.to_json_dict(S)
    edit(doc["action"])
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["check-noetherian", "rector"])
def test_out_of_range_pullback_table_exit_2(tmp_path, capsys, command):
    # malformed input, exit 2, not a counterexample, exit 1
    from functorlab import sfunctor as sf

    path = _write_table(tmp_path, sf.RepresentableFunctor(2, 1, 1), lambda action: action.update({"0x1:": [-1]}))
    code = cli.main(["--input", path, command])
    assert code == 2
    assert "is out of range: -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, reason",
    [
        ([0, -1, 0, 1], "pullback table 2x1:1.0 has an entry that is out of range: -1"),
        ([0, 1], "pullback table 2x1:1.0 has 2 entries, not one per element of S(2)"),
    ],
    ids=["negative-entry", "short-list"],
)
def test_malformed_pullback_table_exit_2_at_load(tmp_path, capsys, table, reason):
    # the edited map is no canonical projection, so only the load-time check sees it
    from functorlab import sfunctor as sf

    path = _write_table(tmp_path, sf.RepresentableFunctor(2, 1, 2), lambda action: action.update({"2x1:1.0": table}))
    assert cli.main(["--input", path, "check-noetherian"]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, reason",
    [
        ("1x1", "map key '1x1' is not of the form RxC:entries"),
        ("ax1:0", "map key 'ax1:0' is not of the form RxC:entries"),
        ("1x1:0:0", "map key '1x1:0:0' is not of the form RxC:entries"),
        ("1x1x1:0", "map key '1x1x1:0' is not of the form RxC:entries"),
        ("2x2:0.1.1", "map key '2x2:0.1.1': map key '0.1.1' does not hold 2x2 entries"),
        ("1x1:3", "map key '1x1:3': map key '3' has an entry outside 0..1"),
        ("1x1:01", "map key '1x1:01' names the map 1x1:1 a second time"),
    ],
)
def test_malformed_map_key_exit_2(tmp_path, capsys, key, reason):
    from functorlab import sfunctor as sf

    path = _write_table(tmp_path, sf.RepresentableFunctor(2, 1, 1), lambda action: action.update({key: [0, 1]}))
    assert cli.main(["--input", path, "check-noetherian"]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("command, code", [("check-noetherian", 2), ("rector", 2), ("degree", 2), ("validate", 1)])
def test_non_functor_table_refused_by_the_calculus(tmp_path, capsys, command, code):
    # the identity of F^1 swaps the two elements: validate reports the
    # witness, exit 1, and every command on the kernel calculus refuses the
    # input, exit 2, instead of answering about data that is not a functor
    from functorlab import sfunctor as sf

    path = _write_table(tmp_path, sf.RepresentableFunctor(2, 1, 3), lambda action: action["1x1:1"].reverse())
    assert cli.main(["--input", path, command]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == "error: table is not a functor: the identity of F^1 moves element 0 of S(1)\n"
    else:
        assert json.loads(captured.out)["witness"] == ["identity", "1", "0"]


def test_missing_map_table_exit_2(tmp_path, capsys):
    from functorlab import sfunctor as sf

    path = _write_table(tmp_path, sf.RepresentableFunctor(2, 1, 2), lambda action: action.pop("2x2:0.1.1.0"))
    code = cli.main(["--input", path, "check-noetherian"])
    assert code == 2
    assert "no pullback along the map 2x2:0.1.1.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda doc: doc["action"].update({"2x1:1.0": 5}), "pullback table 2x1:1.0 is not a list"),
        (lambda doc: {"p": 2, "cap": 1, "action": {}}, "functor table needs the key 'sets' holding a list"),
        (lambda doc: [doc], "expected a JSON object, found a list"),
        (lambda doc: {"p": 2}, "unknown builtin type None"),
        (lambda doc: {"type": "representable"}, "a representable spec needs the key 'U_dim'"),
        (lambda doc: {**doc, "sets": [1, "2", 4]}, "'sets' must hold non-negative ints"),
        (lambda doc: {"type": "representable", "U_dim": 1, "p": "2"}, "p = '2' is not prime"),
        (lambda doc: {"type": "representable", "U_dim": 1, "cap": "2"}, "needs a non-negative int cap, not '2'"),
        (lambda doc: doc["action"]["1x1:1"].__setitem__(1, 1.0), "pullback table 1x1:1 has an entry that is not an int: 1.0"),
        (lambda doc: {**doc, "sets": [True, 2, 4]}, "'sets' must hold non-negative ints"),
        (lambda doc: {**doc, "cap": True}, "functor table needs the key 'cap' holding a int"),
        (lambda doc: {"type": "representable", "U_dim": 1, "cap": True}, "needs a non-negative int cap, not True"),
        (lambda doc: {"type": "representable", "U_dim": True}, "a representable spec needs the key 'U_dim'"),
        (lambda doc: {**doc, "cap": -1, "sets": []}, "functor table: 'cap' must be non-negative, not -1"),
        *[(lambda doc, g=g: {"type": "orbit", "p": 2, "U_dim": 2, "cap": 2, "gamma_generators": [g]}, reason)
          for g, reason in [
              ([[1, 1], [1, 1]], "'gamma_generators' holds [[1, 1], [1, 1]], which is not invertible mod 2"),
              ([[3, 0], [0, 1]], "'gamma_generators' holds [[3, 0], [0, 1]], not a 2x2 matrix of ints in 0..1"),
              ([[True, 0], [0, 1]], "'gamma_generators' holds [[True, 0], [0, 1]], not a 2x2 matrix of ints in 0..1"),
              ([[1]], "'gamma_generators' holds [[1]], not a 2x2 matrix of ints in 0..1"),
          ]],
    ],
    ids=["entry-not-a-list", "no-sets", "top-level-list", "spec-without-type", "spec-without-u-dim",
         "sets-entry-not-an-int", "spec-p-not-an-int", "spec-cap-not-an-int", "entry-a-float", "sets-entry-a-bool",
         "table-cap-a-bool", "spec-cap-a-bool", "spec-u-dim-a-bool", "table-cap-negative", "orbit-generator-singular",
         "orbit-generator-entry-out-of-range", "orbit-generator-entry-a-bool", "orbit-generator-wrong-shape"],
)
def test_malformed_set_functor_json_exit_2(tmp_path, capsys, edit, reason):
    # a layout other than sfunctor.json's is an input error, exit 2, not a
    # traceback with exit 1, the counterexample code
    from functorlab import sfunctor as sf

    doc = sf.to_json_dict(sf.RepresentableFunctor(2, 1, 2))
    doc = edit(doc) or doc
    path = tmp_path / "S.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--input", str(path), "check-noetherian"]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda doc: {**doc, "dims": doc["dims"] + [{"class": 9, "trivial_dim": 0, "dim": 1}]},
         "names the object (9, 0)"),
        (lambda doc: {k: v for k, v in doc.items() if k != "dims"}, "functor document lacks the key(s) ['dims']"),
        (lambda doc: {**doc, "dims": doc["dims"][1:]}, "names an object that has no dims row"),
        (lambda doc: {**doc, "dims": [{"trivial_dim": 0, "dim": 1}] + doc["dims"][1:]},
         "needs non-negative ints under 'class', 'trivial_dim' and 'dim'"),
        (lambda doc: {**doc, "dims": [{**doc["dims"][0], "dim": "1"}] + doc["dims"][1:]},
         "needs non-negative ints under 'class', 'trivial_dim' and 'dim'"),
        (lambda doc: [doc], "expected a JSON object, found a list"),
        (lambda doc: {**doc, "maps": {k: v for k, v in doc["maps"].items() if k != "0,0->0,0:"}},
         "has no map 0,0->0,0:"),
        (lambda doc: {**doc, "window": "2"}, "'window' must hold an int"),
        (lambda doc: {**doc, "window": True}, "'window' must hold an int"),
        (lambda doc: {**doc, "window": -1}, "'window' must be non-negative, not -1"),
        *[(lambda doc, k=k: {**doc, "dims": [{**doc["dims"][0], k: True}] + doc["dims"][1:]},
           "needs non-negative ints under 'class', 'trivial_dim' and 'dim'") for k in ("class", "trivial_dim", "dim")],
        (lambda doc: {**doc, "maps": []}, "'maps' must hold an object"),
        *[(lambda doc, x=x: {**doc, "maps": {**doc["maps"], "0,1->0,1:1": [[x]]}},
           "map 0,1->0,1:1 must hold a 1x1 matrix of ints in 0..1") for x in (1.0, 1.9, True, 3, -1)],
        (lambda doc: {k: v for k, v in doc.items() if k != "p"}, "functor document lacks the key(s) ['p']"),
        (lambda doc: {**doc, "p": 3}, "'p' is 3, but the skeleton is over p = 2"),
        *[(lambda doc, key=key: {**doc, "maps": {(key if k == "0,0->0,0:" else k): v for k, v in doc["maps"].items()}},
           f"map key {key!r} is not of the form class,trivial_dim->class,trivial_dim:entries")
          for key in ("a,0->0,0:", "0,00,0:", "0,0->0,0", "0,0->0,0:x", "0->0,0:")],
        (lambda doc: {**doc, "maps": {**doc["maps"], "0,1->0,1:1.1": [[1]]}},
         "map key '0,1->0,1:1.1': map key '1.1' does not hold 1x1 entries"),
        (lambda doc: {**doc, "maps": {**doc["maps"], "0,1->7,1:1": [[1]]}},
         "map 0,1->7,1:1 names the object (7, 1), which the skeleton lacks"),
        (lambda doc: {**doc, "maps": {**doc["maps"], "0,1->0,1:01": [[1]]}},
         "map key '0,1->0,1:01' names the map 0,1->0,1:1 a second time"),
    ],
    ids=["dims-row-outside-skeleton", "no-dims", "map-object-without-dims-row", "dims-row-without-class",
         "dim-not-an-int", "top-level-list", "missing-map", "window-not-an-int", "window-a-bool", "window-negative",
         "class-a-bool", "trivial-dim-a-bool", "dim-a-bool", "maps-not-an-object",
         "entry-a-float", "entry-a-fraction", "entry-a-bool", "entry-above-p", "entry-negative", "no-p",
         "p-of-another-skeleton", "key-class-not-an-int", "key-without-arrow", "key-without-colon",
         "key-entry-not-a-digit", "key-object-without-comma", "key-entries-of-wrong-count",
         "key-object-outside-skeleton", "key-naming-a-map-twice"],
)
def test_malformed_vfunctor_json_exit_2(tmp_path, capsys, edit, reason):
    # each layout error exits 2 with its reason, not a traceback with exit 1
    from functorlab import elcat, sfunctor, vfunctor

    sk = elcat.Skeleton(sfunctor.RepresentableFunctor(2, 1, 2))
    doc = edit(vfunctor.functor_to_json(vfunctor.forgetful_lift(sk, vfunctor.TensorPower(1, 2))))
    path = tmp_path / "F.json"
    path.write_text(json.dumps(doc))
    argv = ["--builtin", "representable", "--u-dim", "1", "--cap", "2", "degree", "--functor", f"file:{path}"]
    assert cli.main(argv) == 2
    assert reason in capsys.readouterr().err


def test_vfunctor_json_violating_the_laws_exit_2(tmp_path, capsys):
    # single-entry flips of a valid file; the sampled check that validate made
    # before it decided on generators accepted the first flip, among others
    from functorlab import elcat, sfunctor, vfunctor

    sk = elcat.Skeleton(sfunctor.RepresentableFunctor(2, 1, 3))
    doc = vfunctor.functor_to_json(vfunctor.forgetful_lift(sk, vfunctor.TensorPower(1, 2)))
    entries = [(key, r, c) for key, mat in doc["maps"].items() for r in range(len(mat)) for c in range(len(mat[r]))]
    flips = [("0,3->0,3:0.0.1.0.1.1.0.0.1", 0, 0), *random.Random(0).sample(entries, 8)]
    path = tmp_path / "F.json"
    argv = ["--builtin", "representable", "--u-dim", "1", "--cap", "3", "degree", "--functor", f"file:{path}"]
    for key, r, c in flips:
        flipped = json.loads(json.dumps(doc))
        flipped["maps"][key][r][c] ^= 1
        path.write_text(json.dumps(flipped))
        assert cli.main(argv) == 2, (key, r, c)
        assert "tables violate the functor laws" in capsys.readouterr().err


def _simples_payload(tmp_path, argv, seed):
    out = tmp_path / f"simples-{seed}.json"
    assert cli.main([*argv, "--seed", str(seed), "--output", str(out), "enumerate-simples"]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv,count",
    [
        (["--builtin", "representable", "--u-dim", "1", "--cap", "5", "--n-max", "3"], 10),
        (["--builtin", "representable", "--u-dim", "0", "--cap", "4", "--n-max", "3"], 5),
        (["--builtin", "representable", "--u-dim", "0", "--cap", "5", "--n-max", "4"], 7),
        (["--p", "3", "--builtin", "representable", "--u-dim", "0", "--cap", "4", "--n-max", "3"], 6),
    ],
    ids=["rank-one-cap5-n3", "plain-cap4-n3", "plain-cap5-n4", "plain-p3-cap4-n3"],
)
def test_enumerate_simples_seed_independent(tmp_path, capsys, argv, count):
    # the simplicity certificate spins no random kernel on these outputs, so
    # every seed finds the same simples, each run in one or two seconds; the
    # plain base at cap 5, n <= 4 guards the balanced tensor at scale (about
    # 9 s per run while h^{(x)4} was formed as a 625 x 625 matrix); at p = 3
    # Sym(2) and Sym(3) each have two simples of dimension 1, which the
    # splitting found in a seed-dependent order before simples were ordered
    # by Brauer key
    a, b = (_simples_payload(tmp_path, argv, seed) for seed in (1, 11))
    assert a["count"] == count and a["complete_for_n_max"]
    assert a["simples"] == b["simples"]


def test_negative_difference_count_raises():
    from functorlab import elcat, sfunctor, vfunctor

    sk = elcat.Skeleton(sfunctor.RepresentableFunctor(2, 0, 2))
    F = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(1, 2))
    with pytest.raises(ValueError, match="cannot difference -1 times"):
        vfunctor.delta_bar_power(F, -1)
