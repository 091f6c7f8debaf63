"""functorlab benchmark: time to certificate on four CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Processes run one at a time.  With --trace 0 the run reports:

  setup_s      median CPU time (user + system) of fresh interpreters importing
               functorlab.cli
  solve_s      sum over the workload's operations of each one's median CPU
               time over the warm calls, from warm passes run for T seconds in
               one fresh process; caches that outlive a call are emptied
               before each call
  peak_rss_mb  peak resident memory of that process

Both times are rescaled to a host of fixed speed by fixed reference work,
which runs no functorlab code, timed right beside each sample: each call's
CPU time is multiplied by REFERENCE_S over the CPU time of
worker.reference_work right before and after that call, and each import's by
REFERENCE_IMPORT_S over that of an interpreter importing only numpy and sympy
right before it.  On a host shared with other tenants the CPU runs up to 1.6x
slower in bursts that come and go for minutes, which moves raw CPU and wall
times by more than the bounds; the rescaled times hold still.  The run also
prints the raw CPU times and the wall times of the cold and warm passes.

With --trace 1 it runs the same passes, then one more with every library
function wrapped in spans, and reports per-layer counts, self times and
ratios (see perfbench/README.md).  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
The traced run leaves its spans (.perfbench/spans-<workload>.npz, the latest
run of each workload) and a table of every traced function's metrics
(.perfbench/layers-<workload>-seed<N>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import ALL_WORKLOADS, LAYERS  # noqa: E402

SETUP_RUNS = 5
# CPU times of worker.reference_work and of an interpreter importing numpy and
# sympy on a quiet 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, sympy 1.14):
# the host speed the reported times are rescaled to
REFERENCE_S = 0.018
REFERENCE_IMPORT_S = 0.42
GAUGE_IMPORT = "import numpy, sympy"
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit.  Self times are shares of the traced pass, so a
# function the workload never calls reads 0 % and phases of a slower host
# cancel out; trace.pass_s turns a share back into seconds.
PER_LAYER = {
    **{f"layer.{m}.self_pct": "%" for m in LAYERS},
    "gf.rref_dense.calls": "count", "gf.rref_dense.self_pct": "%", "gf.rref_dense.cells": "count",
    "gf.rref_bits.calls": "count", "gf.rref_bits.self_pct": "%", "gf.rref_bits.cells": "count",
    "gf.nullspace.calls": "count", "gf.nullspace.self_pct": "%",
    "gf.solve.calls": "count", "gf.solve.self_pct": "%",
    "gf.enumerate_maps.calls": "count", "gf.enumerate_maps.yielded": "count",
    "gf.rref.rank_ratio": "ratio",
    "sfunctor.act.calls": "count", "sfunctor.act.self_pct": "%",
    "sfunctor.kernel_of.calls": "count", "sfunctor.kernel_of.self_pct": "%",
    "sfunctor.check_weak_noetherian.self_pct": "%",
    "sfunctor.regular_set.self_pct": "%",
    "elcat.Skeleton.init.self_pct": "%",
    "elcat.build_rector_skeleton.self_pct": "%",
    "elcat.hom.calls": "count", "elcat.hom.self_pct": "%", "elcat.hom.keep_ratio": "ratio",
    "elcat.generating_morphisms.calls": "count", "elcat.generating_morphisms.self_pct": "%",
    "elcat.check_injectivity.self_pct": "%",
    "vfunctor.VecFunctor.mat.calls": "count", "vfunctor.VecFunctor.mat.self_pct": "%",
    "vfunctor.p_n.calls": "count", "vfunctor.p_n.self_pct": "%", "vfunctor.p_n.system_rows": "count",
    "vfunctor.delta_bar.calls": "count", "vfunctor.delta_bar.self_pct": "%",
    "vfunctor.generated_subfunctor.calls": "count", "vfunctor.generated_subfunctor.self_pct": "%",
    "vfunctor.polynomial_degree.self_pct": "%",
    "vfunctor.cross_effect.self_pct": "%",
    "vfunctor.nat_space.self_pct": "%",
    "vfunctor.adjunction_check.self_pct": "%",
    "modrep.simple_modules.self_pct": "%",
    "modrep.find_invariant_subspace.calls": "count", "modrep.find_invariant_subspace.self_pct": "%",
    "modrep.find_invariant_subspace.found_ratio": "ratio",
    "modrep.chop.calls": "count",
    "modrep.iso_modules.calls": "count", "modrep.iso_modules.self_pct": "%",
    "modrep.spin.calls": "count",
    "simples.enumerate_simples.self_pct": "%",
    "simples.certify_simple.calls": "count", "simples.certify_simple.self_pct": "%",
    "simples.functor_iso.calls": "count", "simples.functor_iso.self_pct": "%",
    "simples.support_check.self_pct": "%",
    "simples.verify_quotient_equivalence.self_pct": "%",
    "report.render.self_pct": "%",
    "cli.main.self_pct": "%",
    "trace.pass_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    # fixed string hashing, so span counts repeat exactly for a seed
    env["PYTHONHASHSEED"] = "0"
    # one thread per process: the benchmark is a single closed-loop client
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def measure_setup(env, deadline: float) -> tuple[list[float], list[float]]:
    """CPU times of fresh interpreters importing functorlab.cli, each paired with
    the CPU time of one importing only GAUGE_IMPORT right before it, after one
    warm-up pair."""

    def cpu_of(code: str) -> float:
        c0 = _children_cpu()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - perf_counter()))
        return _children_cpu() - c0

    cli, gauge = [], []
    for k in range(SETUP_RUNS + 1):
        g = cpu_of(GAUGE_IMPORT)
        c = cpu_of("import functorlab.cli")
        if k:
            cli.append(c)
            gauge.append(g)
    return cli, gauge


def rescaled(cpu: float, reference: float) -> float:
    """A CPU time as it would read on a host where the reference work takes REFERENCE_S."""
    return cpu * REFERENCE_S / reference


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return "-"
    q = statistics.quantiles(xs, n=4)
    return f"{q[0]:.3f}..{q[2]:.3f}"


def layer_values(layers: dict, traced: float, median_pass: float, spans: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass: counts and ratios as measured,
    self times also as shares of the pass, per function and per module."""
    values = dict(layers)
    selfs = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    for mod in LAYERS:
        selfs[f"layer.{mod}"] = sum(v for f, v in selfs.items() if f.startswith(mod + "."))
    for f, v in selfs.items():
        values[f"{f}.self_pct"] = 100.0 * v / traced if traced else 0.0
    values["trace.pass_s"] = traced
    values["trace.overhead_s"] = traced - median_pass
    values["trace.spans"] = spans
    return values


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description="functorlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "functorlab" / "cli.py").is_file():
        return fail(f"no functorlab sources under {SRC}; run from the root of a checkout")
    deadline = t_start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}"

    setup_cpu, setup_gauge = ([], []) if args.trace else measure_setup(env, deadline)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {DEADLINE_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"worker exited with code {proc.returncode}")
    res = json.loads(lines[-1])

    attempted, failed = res["attempted"], res["failed"]
    samples, passes = res["op_samples"], res["passes"]
    correct = failed == 0 and all(samples)
    # each call is rescaled by the reference work around it, the one figure
    # that holds still while the host's speed comes and goes in bursts
    solve_cpu = sum(statistics.median(c for c, _ in s) for s in samples) if all(samples) else 0.0
    solve = sum(statistics.median(rescaled(c, r) for c, r in s) for s in samples) if all(samples) else 0.0
    median_pass = statistics.median(passes) if passes else 0.0
    for line in res["failures"]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  fail_rate    {failed}/{attempted} operations")
    print(f"  cold pass    {res['cold_s'] or 0.0:.4f} s")
    print(f"  warm passes  {len(passes)}: median {median_pass:.4f} s, "
          f"quartiles {_quartiles(passes)}, all {[round(t, 3) for t in passes]}")
    print(f"  solve CPU    {solve_cpu:.4f} s   sum over {len(samples)} operations of the median CPU time "
          f"of {min(map(len, samples))} or more warm calls")
    if args.trace:
        values = layer_values(res["layers"], res["traced_solve_s"] or 0.0, median_pass, res["spans"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        (OUT / f"layers-{tag}.json").write_text(json.dumps(values, indent=1, sort_keys=True))
        print(f"  traced pass  {values['trace.pass_s']:.4f} s, overhead {values['trace.overhead_s']:+.4f} s "
              f"over the median warm pass, {res['spans']} spans")
    else:
        setup = [c * REFERENCE_IMPORT_S / g for c, g in zip(setup_cpu, setup_gauge)]
        values = {"setup_s": statistics.median(setup),
                  "solve_s": solve,
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"  solve_s      {values['solve_s']:.4f} s   solve CPU rescaled")
        print(f"  setup CPU    median {statistics.median(setup_cpu):.4f} s of {len(setup_cpu)} fresh imports "
              f"{[round(t, 4) for t in setup_cpu]}; '{GAUGE_IMPORT}' median "
              f"{statistics.median(setup_gauge):.4f} s")
        print(f"  setup_s      {values['setup_s']:.4f} s   median of the imports rescaled")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
