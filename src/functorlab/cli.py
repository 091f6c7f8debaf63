"""Command-line front end: batch verification runs with JSON/markdown reports.

Exit codes: 0 for a certificate or successful run, 1 when a counterexample
was found (the witness is in the report), 2 for budget or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import elcat, modrep, report, sfunctor, simples, vfunctor
from .gf import BudgetExceeded, LinearMap, check_prime, restrict, rref
from .vfunctor import WindowExceeded

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2


def _int_flag(check):
    """argparse type: the int check returns; a ValueError from int() or check becomes the parse error."""

    def parse(text: str) -> int:
        try:
            return check(int(text))
        except ValueError as exc:  # argparse prints the message of an ArgumentTypeError only
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _at_least(low: int, below: str):
    def check(value: int) -> int:
        if value < low:
            raise ValueError(f"{value} is {below}")
        return value

    return check


_prime = _int_flag(check_prime)
_non_negative = _int_flag(_at_least(0, "negative"))
_positive = _int_flag(_at_least(1, "not positive"))


def _add_common(ap: argparse.ArgumentParser, suppress: bool):
    # shared flags live on the main parser and on every subparser, the latter
    # with suppressed defaults so values given before the subcommand survive
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--p", type=_prime, default=d(2), help="field characteristic (prime)")
    ap.add_argument("--cap", type=_non_negative, default=d(3), help="dimension cap / window")
    ap.add_argument("--n-max", type=_non_negative, default=d(2), help="largest polynomial degree")
    ap.add_argument("--seed", type=int, default=d(0), help="seed for all derived streams")
    ap.add_argument("--jobs", type=_positive, default=d(1), help="worker pool bound")
    ap.add_argument("--budget-maps", type=int, default=d(1 << 20), help="map enumeration budget")
    ap.add_argument("--budget-group", type=int, default=d(1000), help="group order budget")
    ap.add_argument("--input", type=str, default=d(None), help="sfunctor.json or builtin spec file")
    ap.add_argument("--builtin", type=str, default=d(None), help="representable | orbit | subspaces | kernel-mismatch")
    ap.add_argument("--u-dim", type=_non_negative, default=d(2), help="target dimension for builtins")
    ap.add_argument("--format", dest="fmt", choices=["json", "markdown"], default=d("json"))
    ap.add_argument("--output", type=str, default=d(None), help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="functorlab",
        description="exact functor-category computations over prime fields",
    )
    _add_common(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)

    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check the functor laws of the input tables")
    sub.add_parser("check-noetherian", parents=[common], help="weaker noetherianity plus regular-element report")
    sub.add_parser("rector", parents=[common], help="regular classes, automorphism groups, hom matrix")

    for name in ("degree", "delta"):
        p = sub.add_parser(name, parents=[common], help="difference calculus on a chosen functor")
        p.add_argument(
            "--functor",
            type=str,
            default="tensor:1",
            help="tensor:n | constant | cogen:r,v | symmetrizer:parts | file:vfunctor.json",
        )
        p.add_argument("--save-functor", type=str, default=None, help="write the (differenced) functor tables here")
        if name == "delta":
            p.add_argument("--times", type=int, default=1)

    p = sub.add_parser("cross-effect", parents=[common], help="joint omission kernel at a base object")
    p.add_argument("--functor", type=str, default="tensor:2")
    p.add_argument("--base", type=str, default="0,0", help="skeletal object as class,trivial-dim")
    p.add_argument("--blocks", type=str, default="1,1", help="block dimensions")

    p = sub.add_parser("simples-of-group", parents=[common], help="simple modules of a small group")
    p.add_argument("--group", type=str, default="sym:3", help="sym:n | autsym:class,n")

    sub.add_parser("enumerate-simples", parents=[common], help="classification run up to degree n-max")
    sub.add_parser("verify-theorems", parents=[common], help="run the full verification suites")

    p = sub.add_parser("demo", parents=[common], help="run an action on a shipped builtin")
    p.add_argument("action", nargs="?", default="rector")
    return ap


# ---------------------------------------------------------------------------
# input resolution


def resolve_set_functor(args) -> sfunctor.SetFunctor:
    if args.input:
        with open(args.input) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.input}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        if "action" in doc:
            return sfunctor.from_json_dict(doc)
        return sfunctor.from_builtin_spec(doc, cap=doc.get("cap", args.cap))
    builtin = args.builtin or "representable"
    if builtin == "kernel-mismatch":
        return sfunctor.kernel_mismatch_example(args.p)
    return sfunctor.from_builtin_spec(
        {"type": builtin, "p": args.p, "U_dim": args.u_dim}, cap=args.cap
    )


def resolve_functor(sk: elcat.Skeleton, spec: str) -> vfunctor.VecFunctor:
    kind, _, rest = spec.partition(":")
    if kind == "tensor":
        return vfunctor.forgetful_lift(sk, vfunctor.TensorPower(int(rest or 1), sk.p))
    if kind == "constant":
        return vfunctor.constant_functor(sk, int(rest or 1))
    if kind == "cogen":
        r, v = (int(x) for x in rest.split(","))
        return vfunctor.injective_cogen(sk, sk.index[(r, v)])
    if kind == "symmetrizer":
        parts = tuple(int(x) for x in rest.split(","))
        lam = modrep.Partition(parts)
        n = lam.n
        img = modrep.TensorSymmetrizerImage(
            modrep.epsilon_lambda(lam, n, sk.p), n, sk.p, name=f"e{parts}T^{n}"
        )
        return vfunctor.forgetful_lift(sk, img)
    if kind == "file":
        with open(rest) as fh:
            doc = json.load(fh)
        F = vfunctor.functor_from_json(sk, doc, name=rest)
        if not F.validate(pair_budget=20_000):
            raise ValueError(f"{rest}: tables violate the functor laws")
        return F
    raise ValueError(f"unknown functor spec {spec!r}")


def config_dict(args) -> dict:
    return {
        "p": args.p,
        "cap": args.cap,
        "n_max": args.n_max,
        "seed": args.seed,
        "jobs": args.jobs,
        "budget_maps": args.budget_maps,
        "budget_group": args.budget_group,
        "builtin": args.builtin or ("input" if args.input else "representable"),
        "u_dim": args.u_dim,
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def run_validate(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    rep = sfunctor.validate(S, seed=args.seed)
    body = {
        "functor": S.describe(),
        "checked_pairs": rep.checked_pairs,
        "exhaustive": rep.exhaustive,
        "witness": _witness_dict(rep.witness),
    }
    return body, (EXIT_OK if rep.ok else EXIT_COUNTEREXAMPLE)


def _witness_dict(w):
    if w is None:
        return None
    out = []
    for part in w:
        if isinstance(part, LinearMap):
            out.append({"matrix": part.arr.tolist(), "rows": part.rows, "cols": part.cols})
        elif isinstance(part, sfunctor.SElement):
            out.append({"dim": part.dim, "index": part.index})
        elif hasattr(part, "basis_arr"):
            out.append({"subspace": part.basis_arr.tolist(), "ambient": part.ambient})
        else:
            out.append(str(part))
    return out


def run_check_noetherian(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    weak = sfunctor.check_weak_noetherian(S, budget=args.budget_maps)
    body = {
        "functor": S.describe(),
        "weakly_noetherian": weak.ok,
        "checked_pairs": weak.checked,
        "window": weak.window,
        "witness": _witness_dict(weak.witness),
    }
    if weak.ok:
        noeth = sfunctor.check_noetherian(S)
        body["regular_counts"] = noeth.regular_counts
        body["last_regular_dim"] = noeth.last_regular_dim
        body["vanishes_before_cap"] = noeth.vanishes_before_cap
    return body, (EXIT_OK if weak.ok else EXIT_COUNTEREXAMPLE)


def run_rector(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    body = elcat.rector_report(sk)
    ok, wit = elcat.check_injectivity(S, sk.rector, budget=args.budget_maps)
    body["all_regular_morphisms_injective"] = ok
    if not ok:
        body["witness"] = {"matrix": wit.map.arr.tolist()}
    return body, (EXIT_OK if ok else EXIT_COUNTEREXAMPLE)


def run_degree(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    F = resolve_functor(sk, args.functor)
    deg, window = vfunctor.polynomial_degree(F)
    body = {
        "functor": F.name,
        "degree": deg,
        "certified": deg is not None,
        "vanishing_checked_on_window": window,
        "value_dims": _dims_rows(F),
    }
    if getattr(args, "save_functor", None):
        with open(args.save_functor, "w") as fh:
            json.dump(vfunctor.functor_to_json(F, args.budget_maps), fh, sort_keys=True)
    return body, EXIT_OK


def _dims_rows(F) -> list[dict]:
    return [
        {"class": r, "trivial_dim": v, "dim": d} for (r, v, d) in F.dims_list()
    ]


def run_delta(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    F = resolve_functor(sk, args.functor)
    D = vfunctor.delta_bar_power(F, args.times)
    body = {
        "functor": F.name,
        "times": args.times,
        "window": D.window,
        "value_dims": _dims_rows(D),
        "is_zero": D.is_zero(),
    }
    if getattr(args, "save_functor", None):
        with open(args.save_functor, "w") as fh:
            json.dump(vfunctor.functor_to_json(D, args.budget_maps), fh, sort_keys=True)
    return body, EXIT_OK


def run_cross_effect(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    F = resolve_functor(sk, args.functor)
    r, v = (int(x) for x in args.base.split(","))
    blocks = tuple(int(x) for x in args.blocks.split(","))
    cr = vfunctor.cross_effect(F, sk.index[(r, v)], blocks)
    body = {
        "functor": F.name,
        "base": {"class": r, "trivial_dim": v},
        "blocks": list(blocks),
        "dim": cr.dim,
    }
    if all(b == 1 for b in blocks) and len(blocks) > 1:
        swap = list(range(len(blocks)))
        swap[0], swap[1] = swap[1], swap[0]
        body["first_transposition_action"] = cr.sigma_matrix(tuple(swap)).tolist()
    return body, EXIT_OK


def run_simples_of_group(args) -> tuple[dict, int]:
    kind, _, rest = args.group.partition(":")
    if kind == "sym":
        G = modrep.FiniteGroup.symmetric(int(rest))
    elif kind == "autsym":
        rclass, n = (int(x) for x in rest.split(","))
        S = resolve_set_functor(args)
        sk = elcat.Skeleton(S, budget=args.budget_maps)
        G = vfunctor.aut_sigma_group(sk, rclass, n)
    else:
        raise ValueError(f"unknown group spec {args.group!r}")
    rep = modrep.simple_modules(G, args.p, seed=args.seed, budget=args.budget_group)
    body = {
        "group": G.name,
        "order": len(G),
        "simples": [
            {"dim": m.dim, "multiplicity_in_regular": mult}
            for m, mult in zip(rep.simples, rep.multiplicities)
        ],
        "accounting_ok": rep.accounting_ok,
    }
    return body, EXIT_OK


def run_enumerate_simples(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    descs = simples.enumerate_simples(
        sk, args.n_max, seed=args.seed, group_budget=args.budget_group, jobs=args.jobs
    )
    body = simples.simples_report(descs, sk, args.n_max)
    return body, EXIT_OK


def run_verify_theorems(args) -> tuple[dict, int]:
    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    suites: dict[str, bool] = {}

    # difference calculus: iterated differences match cross effects
    F2 = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(2, sk.p))
    d2 = vfunctor.delta_bar_power(F2, 2)
    suites["iterated_difference_equals_cross_effect"] = all(
        d2.dim(i) == vfunctor.cross_effect(F2, i, (1, 1)).dim for i in d2.object_indices()
    )

    # additivity of cross effects in each slot
    base = sk.index[(0, 0)]
    if sk.objects[base].dim + 3 <= sk.window:
        whole = vfunctor.cross_effect(F2, base, (2, 1))
        part = vfunctor.cross_effect(F2, base, (1, 1))
        suites["cross_effect_additivity"] = whole.dim == 2 * part.dim

    # exactness of the difference functor on seeded subfunctor sequences
    rng = np.random.default_rng(args.seed)
    oks = []
    F2w = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(2, sk.p), window=min(3, sk.window))
    for _ in range(8):
        sub = vfunctor.random_subfunctor(F2w, rng)
        oks.append(vfunctor.ses_delta_exactness(F2w, sub))
    suites["difference_exactness_on_seeded_sequences"] = all(oks)

    # shears act as the identity on cross effects
    ok_shear = True
    for rclass, rep_obj in enumerate(sk.rector.classes):
        if rep_obj.dim + 2 > min(3, sk.window):
            continue
        cr = vfunctor.cross_effect(F2w, sk.index[(rclass, 0)], (1, 1))
        o = sk.objects[cr.plus_index]
        for shear in sk.shears(o.rclass, o.vdim):
            m = restrict(F2w.mat(cr.plus_index, cr.plus_index, shear), cr.basis, cr.basis, sk.p)
            ok_shear &= bool(np.array_equal(m, np.eye(cr.dim, dtype=np.int64)))
    suites["shears_act_trivially_on_cross_effects"] = ok_shear

    # degree-0 restriction/extension round trip
    ok_bar = True
    for rclass in range(len(sk.rector.classes)):
        I = vfunctor.injective_cogen(sk, sk.index[(rclass, 0)], window=min(3, sk.window))
        rt = vfunctor.bar_roundtrip_iso(I)
        ok_bar &= rt.is_natural()
        ok_bar &= all(
            m.shape[0] == m.shape[1] and len(rref(m, sk.p)[1]) == m.shape[0]
            for m in rt.mats.values()
        )
    suites["degree_zero_round_trip"] = ok_bar

    # module recovery and the adjunction (dimension equality plus triangles)
    ok_adj = True
    for rclass, rep_obj in enumerate(sk.rector.classes):
        for n in range(1, args.n_max + 1):
            if rep_obj.dim + n + 1 > sk.window:
                continue
            w = min(sk.window, max(3, n + 1))
            G = vfunctor.aut_sigma_group(sk, rclass, n)
            M = vfunctor.sigma_functor_from_module(sk, rclass, n, modrep.regular_module(G, sk.p))
            Fn = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(n, sk.p), window=w)
            rep = vfunctor.adjunction_check(M, Fn, n)
            ok_adj &= rep["dims_equal"] and rep["triangle_tensor"] and rep["triangle_difference"]
    suites["adjunction_dimensions_and_triangles"] = ok_adj

    # quotient equivalence instances; a degree-n certificate needs n+1 headroom
    ok_main = True
    for n in range(1, args.n_max + 1):
        if n + 1 > sk.window:
            continue
        w = min(sk.window, max(3, n + 1))
        Fn = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(n, sk.p), window=w)
        ok_main &= simples.verify_quotient_equivalence(Fn, n)["ok"]
    suites["quotient_equivalence_instances"] = ok_main

    # the classification run itself
    descs = simples.enumerate_simples(
        sk, args.n_max, seed=args.seed, group_budget=args.budget_group, jobs=args.jobs
    )
    expected = 0
    for rclass, rep_obj in enumerate(sk.rector.classes):
        for n in range(min(args.n_max, sk.window - rep_obj.dim) + 1):
            G = vfunctor.aut_sigma_group(sk, rclass, n)
            expected += len(modrep.simple_modules(G, sk.p, seed=args.seed).simples)
    suites["classification_bijection"] = len(descs) == expected

    body = {
        "suites": suites,
        "simples_found": len(descs),
        "window": sk.window,
    }
    return body, (EXIT_OK if all(suites.values()) else EXIT_COUNTEREXAMPLE)


def run_demo(args) -> tuple[dict, int]:
    action = args.action
    dispatch = {
        "validate": run_validate,
        "rector": run_rector,
        "check-noetherian": run_check_noetherian,
        "degree": run_degree,
        "enumerate-simples": run_enumerate_simples,
        "verify-theorems": run_verify_theorems,
    }
    if action not in dispatch:
        raise ValueError(f"unknown demo action {action!r}")
    if action in ("degree",):
        args.functor = "tensor:1"
    body, code = dispatch[action](args)
    body["demo_action"] = action
    return body, code


HANDLERS = {
    "validate": run_validate,
    "check-noetherian": run_check_noetherian,
    "rector": run_rector,
    "degree": run_degree,
    "delta": run_delta,
    "cross-effect": run_cross_effect,
    "simples-of-group": run_simples_of_group,
    "enumerate-simples": run_enumerate_simples,
    "verify-theorems": run_verify_theorems,
    "demo": run_demo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        body, code = HANDLERS[args.command](args)
    except (BudgetExceeded, WindowExceeded, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    doc = report.make_report(args.command, config_dict(args), body, ok=(code == EXIT_OK))
    text = report.render(doc, args.fmt)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
