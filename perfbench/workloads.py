"""The benchmark's workloads: CLI operations and the invariants their reports must meet.

Each operation is the argv of one `functorlab.cli.main` call; the harness
appends `--seed S --output PATH`, S being the run's seed.
A check takes the parsed report and returns the list of broken invariants,
empty when the report is correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# functorlab's library modules, the layers the traced run reports
LAYERS = ("gf", "sfunctor", "elcat", "vfunctor", "modrep", "simples", "report", "cli")


def p_regular_partitions(n: int, p: int) -> int:
    """Number of partitions of n in which no part occurs p or more times."""

    def count(rest: int, largest: int) -> int:
        if rest == 0:
            return 1
        return sum(
            count(rest - part * times, part - 1)
            for part in range(min(rest, largest), 0, -1)
            for times in range(1, min(p - 1, rest // part) + 1)
        )

    return count(n, n)


def simples_count(p: int, n_max: int) -> int:
    """Simple functors of degree <= n_max over the plain base: one per p-regular partition."""
    return sum(p_regular_partitions(n, p) for n in range(n_max + 1))


def _expect(problems: list[str], ok: bool, what: str):
    if not ok:
        problems.append(what)


def check_classification(p: int, n_max: int) -> Callable[[dict], list[str]]:
    want = simples_count(p, n_max)

    def check(doc: dict) -> list[str]:
        out: list[str] = []
        _expect(out, doc.get("count") == want, f"count {doc.get('count')} != {want}")
        _expect(out, doc.get("complete_for_n_max") is True, "not complete_for_n_max")
        return out

    return check


def check_theorems(doc: dict) -> list[str]:
    out: list[str] = []
    suites = doc.get("suites") or {}
    _expect(out, bool(suites), "no suites")
    for name, ok in sorted(suites.items()):
        _expect(out, ok is True, f"suite {name} failed")
    _expect(out, doc.get("simples_found") == 6, f"simples_found {doc.get('simples_found')} != 6")
    return out


def check_rector(doc: dict) -> list[str]:
    out: list[str] = []
    n = len(doc.get("classes") or [])
    _expect(out, n == 5, f"{n} classes != 5")
    _expect(out, doc.get("all_regular_morphisms_injective") is True, "a regular morphism is not injective")
    return out


def check_noetherian(doc: dict) -> list[str]:
    out: list[str] = []
    _expect(out, doc.get("weakly_noetherian") is True, "not weakly_noetherian")
    return out


def check_group_simples(n: int, p: int) -> Callable[[dict], list[str]]:
    want = p_regular_partitions(n, p)

    def check(doc: dict) -> list[str]:
        out: list[str] = []
        got = len(doc.get("simples") or [])
        _expect(out, doc.get("accounting_ok") is True, "composition accounting failed")
        _expect(out, got == want, f"{got} simples != {want} {p}-regular partitions of {n}")
        return out

    return check


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its report."""

    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]


def _argv(s: str) -> tuple[str, ...]:
    return tuple(s.split())


def _table(*workloads: Workload) -> dict[str, Workload]:
    return {w.name: w for w in workloads}


# the workloads BENCHMARK.json lists, in its order
WORKLOADS = _table(
    Workload("theorems-rank1-p2", (
        Op(_argv("--builtin representable --u-dim 1 --cap 4 --n-max 2 verify-theorems"), check_theorems),
    )),
    Workload("elements-u2-p2", (
        Op(_argv("--builtin representable --u-dim 2 --cap 4 rector"), check_rector),
        Op(_argv("--builtin representable --u-dim 2 --cap 3 check-noetherian"), check_noetherian),
    )),
)

# Runnable by name, but not in BENCHMARK.json, because their time depends on
# the seed more than runs of one workload may spread:
# - one plain-base classification to degree 3 takes 9-12 s at seeds 1, 2, 13
#   and 14 and 48-54 s at seeds 11 and 12, because certify_simple spins every
#   vector of a random kernel whose dimension depends on the seed; runs then
#   cannot even fit a cold and three warm passes in the time one run may take;
# - the MeatAxe work of sym:5 varies from 1.3M to 2.9M eliminated cells over
#   11 seeds.
ON_DEMAND = _table(
    Workload("classify-plain-p2", (
        Op(_argv("--builtin representable --u-dim 0 --cap 4 --n-max 3 enumerate-simples"),
           check_classification(2, 3)),
    )),
    Workload("modules-p3", (
        Op(_argv("--p 3 simples-of-group --group sym:5"), check_group_simples(5, 3)),
        Op(_argv("--p 3 --builtin representable --u-dim 0 --cap 3 --n-max 2 enumerate-simples"),
           check_classification(3, 2)),
    )),
)

ALL_WORKLOADS = {**WORKLOADS, **ON_DEMAND}
