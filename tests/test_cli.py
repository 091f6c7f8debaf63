"""Command-line contract: exit codes, formats, file interchange, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from functorlab import cli


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


def test_jobs_flag_deterministic(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out = run_cli(
            ["--builtin", "representable", "--u-dim", "1", "--cap", "3", "--jobs", jobs,
             "enumerate-simples"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        doc["config"]["jobs"] = None
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


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
        ("--jobs", "0", "0 is not positive"),
    ],
    ids=["cap", "u-dim", "n-max", "jobs"],
)
def test_out_of_range_int_flag_rejected_at_parse_time(capsys, flag, value, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--builtin", "representable", "--u-dim", "1", "--cap", "1", flag, value, "rector"])
    assert exc.value.code == 2
    assert f"argument {flag}: {reason}" in capsys.readouterr().err
