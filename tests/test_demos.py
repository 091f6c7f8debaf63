"""The demos name only what functorlab has: every `alias.name` on an imported
functorlab module, and every name imported from one, resolves.  Parsed with
ast, so most demos do not run; the two that call the set-functor
certificates, and the one that factors polynomials to split group modules,
run to the end."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unresolved_names(source: str) -> list[str]:
    tree = ast.parse(source)
    aliases = {}  # local name -> functorlab module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "functorlab" and a.asname:
                    aliases[a.asname] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "functorlab":
            mod = importlib.import_module(node.module)
            for a in node.names:
                value = getattr(mod, a.name, None)
                if value is None:  # a submodule the package does not import itself
                    try:
                        value = importlib.import_module(f"{node.module}.{a.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{a.name} (line {node.lineno})")
                if isinstance(value, types.ModuleType):
                    aliases[a.asname or a.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and not hasattr(aliases[node.value.id], node.attr)
        ):
            missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return missing


def test_there_are_demos():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    assert unresolved_names(path.read_text()) == []


def test_unresolved_names_are_reported():
    src = "from functorlab import simples as sp\nfrom functorlab.gf import nope\nsp.verify_main1(1, 2)\n"
    assert unresolved_names(src) == ["functorlab.gf.nope (line 2)", "sp.verify_main1 (line 3)"]


@pytest.mark.parametrize(
    "name,lines",
    [
        (
            "02_set_functors_and_kernels.py",
            ["S_U satisfies the kernel-preimage condition: True", "condition holds: True"],
        ),
        ("03_element_categories.py", ["checked across the whole cap: True"]),
        (
            "05_group_modules.py",
            [
                f"partition {parts} over F_{p}: ideal of dim {dim}, irreducible: True"
                for parts, p, dim in [
                    ((3,), 2, 1), ((2, 1), 2, 2), ((4,), 3, 1), ((3, 1), 3, 3), ((2, 2), 3, 1), ((2, 1, 1), 3, 3)
                ]
            ],
        ),
    ],
)
def test_certificate_demos_run(name, lines):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    for line in lines:
        assert line in done.stdout.splitlines()
