"""One workload in one process: a cold pass, then warm passes for the run's seconds.

Warm passes run until the given seconds have passed since the cold pass
began, and at least MIN_WARM_PASSES of them.

Started by run.py with PYTHONPATH set to the checkout's src/.  Each operation
is one `functorlab.cli.main(argv + ["--seed", S, "--output", tmp])` call,
issued after the previous one returns (a closed loop with one client).
Before each call the caches that functorlab keeps across calls (anything with
`cache_clear`, such as `gf.general_linear`) are emptied, so a warm call does
the work of a CLI call minus the import.  Each call is timed in wall time and
in the process's CPU time, and the reference work runs right before and right
after it, so that the host's speed at the time of the call is known.  An
operation fails when it raises, exits non-zero, breaks an invariant of its
workload, or writes report bytes that differ from its first pass.  Failed
operations count in `failed` and their passes are left out of the timings.

With --trace 1 one more pass runs with every library function wrapped in
spans (tracing.py); its reports must equal the untraced ones byte for byte.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import PACKAGE, Tracer, layer_metrics
from workloads import ALL_WORKLOADS, Workload

MIN_WARM_PASSES = 3


def reference_work() -> float:
    """CPU time of a fixed piece of work that uses no functorlab code: a gauge of the host's speed."""
    c0 = process_time()
    d: dict = {}
    for i in range(60_000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    a = np.arange(36, dtype=np.int64).reshape(6, 6) % 2
    for _ in range(3000):
        a = (a @ a + 1) % 2
    return process_time() - c0


def process_caches() -> list:
    """Caches of the imported functorlab modules and their classes that outlive a call."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        values = list(vars(mod).values())
        values += [v for cls in values if isinstance(cls, type) and cls.__module__ == name
                   for v in vars(cls).values()]
        for value in values:
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


class Runner:
    """Runs passes over a workload's operations and keeps the failure count."""

    def __init__(self, cli, workload: Workload, seed: int, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.caches = process_caches()

    def run_op(self, k: int) -> tuple[float, float, float, list[str]]:
        """Wall time, CPU time, CPU time of the reference work around the call
        (mean of before and after) and broken invariants of operation k."""
        op = self.workload.ops[k]
        out = self.tmp / f"op{k}.json"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--seed", str(self.seed), "--output", str(out)]
        for cache in self.caches:
            cache.cache_clear()
        before = reference_work()
        t0, c0 = perf_counter(), process_time()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = [] if code == 0 else [f"exit code {code}"]
        wall, cpu = perf_counter() - t0, process_time() - c0
        reference = (before + reference_work()) / 2
        if not problems:
            data = out.read_bytes()
            problems = op.check(json.loads(data))
            if data != self.reference.setdefault(k, data):
                problems.append("report bytes differ from the first pass")
        return wall, cpu, reference, problems

    def run_pass(self, label: str, samples: list[list[tuple[float, float]]] | None = None) -> float | None:
        """Wall time of one pass over the operations, or None when one failed.

        The CPU time of each operation that succeeded and of the reference work
        around it are appended, as a pair, to the operation's list in samples.
        """
        total, ok = 0.0, True
        for k, op in enumerate(self.workload.ops):
            wall, cpu, reference, problems = self.run_op(k)
            self.attempted += 1
            total += wall
            if problems:
                ok = False
                self.failed += 1
                self.failures.append(f"{label}: {' '.join(op.argv)} --seed {self.seed}: "
                                     f"{'; '.join(problems)}")
            elif samples is not None:
                samples[k].append((cpu, reference))
        return total if ok else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory the functorlab package must come from")
    ap.add_argument("--spans", default=None, help="write the traced pass's spans here (.npz)")
    args = ap.parse_args(argv)

    from functorlab import cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"functorlab imported from {cli.__file__}, not from {src}\n")
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="reports-", dir=src.parent / ".perfbench"))
    try:
        runner = Runner(cli, ALL_WORKLOADS[args.workload], args.seed, tmp)
        begin = perf_counter()
        cold = runner.run_pass("cold")
        warm: list[float | None] = []
        op_samples: list[list[tuple[float, float]]] = [[] for _ in runner.workload.ops]
        while len(warm) < MIN_WARM_PASSES or perf_counter() - begin < args.seconds:
            warm.append(runner.run_pass(f"warm {len(warm) + 1}", op_samples))
        passes = [t for t in warm if t is not None]
        result = {
            "cold_s": cold,
            "passes": passes,
            "op_samples": op_samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.trace:
            with Tracer() as tracer:
                traced = runner.run_pass("traced")
            cols = tracer.arrays()
            if args.spans:
                tracer.save(args.spans)
            result["layers"] = layer_metrics(tracer.names, cols)
            result["traced_solve_s"] = traced
            result["spans"] = len(tracer.fid)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
