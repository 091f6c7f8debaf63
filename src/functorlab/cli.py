"""Command-line front end: batch verification runs with JSON/markdown reports.

Exit codes: 0 for a certificate or successful run, 1 when a counterexample
was found (the witness is in the report), 2 for budget or input errors and
when the splitting search gives up.  The exceptions behind exit 2 live in
``gf`` (``BudgetExceeded``, ``WindowExceeded``, ``SplittingFailure``) and
``sfunctor`` (``InvalidFunctorData``), beside ``ValueError`` and ``OSError``.
Importing this module loads ``gf``, ``sfunctor``, ``elcat`` and ``report``;
handlers import ``vfunctor``, ``modrep`` and ``simples`` when they run.

The parser is flat and built per call, which reads the terminal width once:
one ``ArgumentParser`` holds the shared flags, the command (a key of
``HANDLERS``, whose docstrings give the ``--help`` lines) and the options of
single commands, whose defaults ``COMMAND_DEFAULTS`` fills in after parsing.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import shutil
import sys

import numpy as np

from . import elcat, report, sfunctor
from .gf import BudgetExceeded, SplittingFailure, WindowExceeded, check_prime, restrict, rref

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


def _non_negative_list(length: int | None = None):
    """argparse type: comma-separated non-negative ints, ``length`` of them when given."""

    def parse(text: str) -> tuple[int, ...]:
        values = tuple(_non_negative(part) for part in text.split(","))
        if length is not None and len(values) != length:
            raise argparse.ArgumentTypeError(f"{text!r} is not {length} comma-separated ints")
        return values

    return parse


def _spec_ints(spec: str, what: str, parse):
    """The ints after the colon of a --group or --functor spec, read by an argparse type."""
    try:
        return parse(spec.partition(":")[2])
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{what} {exc}") from None


def _check_group_order(aut_order: int, n: int, budget: int) -> None:
    """Reject Aut x Sym(n) over the budget before its multiplication table is built."""
    order = aut_order
    for k in range(2, n + 1):  # stops early, so a huge n costs nothing
        order *= k
        if order > budget:
            shown = order if k == n else f"at least {order}"
            raise ValueError(f"group order {shown} exceeds budget {budget}")


# The options that only some commands take, by command, with their defaults;
# the parser leaves them unset, so parse_args can tell which were given.
COMMAND_DEFAULTS = {
    "degree": {"functor": "tensor:1", "save_functor": None},
    "delta": {"functor": "tensor:1", "save_functor": None, "times": 1},
    "cross-effect": {"functor": "tensor:2", "base": (0, 0), "blocks": (1, 1)},
    "simples-of-group": {"group": "sym:3"},
    "demo": {"action": "rector"},
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser, built per call: the shared flags, the command, and
    every command's own options with suppressed defaults."""
    helps = {name: (handler.__doc__ or "").partition("\n")[0] for name, handler in HANDLERS.items()}
    # argparse builds a formatter per add_argument; each would ask the
    # terminal for its width, so it is read once here, by argparse's own rule
    width = shutil.get_terminal_size().columns - 2
    ap = argparse.ArgumentParser(
        prog="functorlab",
        description="exact functor-category computations over prime fields",
        epilog="commands:\n" + "\n".join(f"  {name:<20}{text}" for name, text in helps.items()),
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=width),
    )
    ap.add_argument("--p", type=_prime, default=2, help="field characteristic (prime)")
    ap.add_argument("--cap", type=_non_negative, default=3, help="dimension cap / window")
    ap.add_argument("--n-max", type=_non_negative, default=2, help="largest polynomial degree")
    ap.add_argument("--seed", type=int, default=0, help="seed for all derived streams")
    ap.add_argument("--budget-maps", type=_positive, default=1 << 20, help="map enumeration budget")
    ap.add_argument("--budget-group", type=_positive, default=1000, help="group order budget")
    ap.add_argument("--input", type=str, default=None, help="sfunctor.json or builtin spec file")
    ap.add_argument("--builtin", type=str, default=None, help="representable | orbit | subspaces | kernel-mismatch")
    ap.add_argument("--u-dim", type=_non_negative, default=2, help="target dimension for builtins")
    ap.add_argument("--format", dest="fmt", choices=["json", "markdown"], default="json")
    ap.add_argument("--output", type=str, default=None, help="write the report here instead of stdout")
    ap.add_argument("command", metavar="command", choices=HANDLERS, help="one of the commands below")
    unset = argparse.SUPPRESS
    ap.add_argument(
        "--functor", default=unset,
        help="degree, delta, cross-effect: tensor:n | constant | cogen:r,v | symmetrizer:parts | file:vfunctor.json",
    )
    ap.add_argument("--save-functor", default=unset, help="degree, delta: write the (differenced) functor tables here")
    ap.add_argument("--times", type=_non_negative, default=unset, help="delta: how many differences")
    ap.add_argument("--base", type=_non_negative_list(2), default=unset, help="cross-effect: object as class,trivial-dim")
    ap.add_argument("--blocks", type=_non_negative_list(), default=unset, help="cross-effect: block dimensions")
    ap.add_argument("--group", default=unset, help="simples-of-group: sym:n | autsym:class,n")
    ap.add_argument("action", nargs="?", default=unset, help="demo: the command to run on a builtin")
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed argv, each command's own options filled in from
    COMMAND_DEFAULTS; an option the command does not take exits 2."""
    ap = build_parser()
    args, extras = ap.parse_known_args(argv)
    given = vars(args)
    # argparse gives demo's optional action an empty match beside the command
    # when flags follow, so an action given after them comes back as an extra
    if extras and args.command == "demo" and "action" not in given and not extras[0].startswith("-"):
        given["action"] = extras.pop(0)
    if extras:
        ap.error(f"unrecognized arguments: {' '.join(extras)}")
    takes = COMMAND_DEFAULTS.get(args.command, {})
    own = {dest for options in COMMAND_DEFAULTS.values() for dest in options}
    for dest in sorted((own - takes.keys()) & given.keys()):
        if dest == "action":
            ap.error(f"unrecognized arguments: {given[dest]}")
        ap.error(f"argument --{dest.replace('_', '-')}: not an option of {args.command}")
    for dest, default in takes.items():
        given.setdefault(dest, default)
    return args


# ---------------------------------------------------------------------------
# input resolution


def _read_json(path: str):
    """The JSON document in the file path; a syntax error is a ValueError
    naming path:line:col."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def resolve_set_functor(args) -> sfunctor.SetFunctor:
    if args.input:
        doc = _read_json(args.input)
        if not isinstance(doc, dict):
            raise sfunctor.InvalidFunctorData(f"{args.input}: expected a JSON object, found a {type(doc).__name__}")
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
    from . import modrep, vfunctor

    kind, _, rest = spec.partition(":")
    if kind == "tensor":
        n = _spec_ints(spec, "tensor power", _non_negative) if rest else 1
        return vfunctor.forgetful_lift(sk, vfunctor.TensorPower(n, sk.p))
    if kind == "constant":
        d = _spec_ints(spec, "constant dimension", _non_negative) if rest else 1
        return vfunctor.constant_functor(sk, d)
    if kind == "cogen":
        r, v = _spec_ints(spec, "cogen object", _non_negative_list(2))
        return vfunctor.injective_cogen(sk, _object_index(sk, r, v))
    if kind == "symmetrizer":
        parts = _spec_ints(spec, "symmetrizer partition", _non_negative_list())
        lam = modrep.Partition(parts)
        n = lam.n
        img = modrep.TensorSymmetrizerImage(
            modrep.epsilon_lambda(lam, n, sk.p), n, sk.p, name=f"e{parts}T^{n}"
        )
        return vfunctor.forgetful_lift(sk, img)
    if kind == "file":
        F = vfunctor.functor_from_json(sk, _read_json(rest), name=rest)
        if not F.validate():
            raise ValueError(f"{rest}: tables violate the functor laws")
        return F
    raise ValueError(f"unknown functor spec {spec!r}")


def _object_index(sk: elcat.Skeleton, r: int, v: int) -> int:
    if (r, v) not in sk.index:
        raise ValueError(f"the skeleton has no object of class {r} with trivial dim {v}")
    return sk.index[(r, v)]


def config_dict(args) -> dict:
    return {
        "p": args.p,
        "cap": args.cap,
        "n_max": args.n_max,
        "seed": args.seed,
        "budget_maps": args.budget_maps,
        "budget_group": args.budget_group,
        "builtin": args.builtin or ("input" if args.input else "representable"),
        "u_dim": args.u_dim,
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def run_validate(args) -> tuple[dict, int]:
    """check the functor laws of the input tables"""
    S = resolve_set_functor(args)
    rep = sfunctor.validate(S)
    body = {
        "functor": S.describe(),
        "checked_pairs": rep.checked_pairs,
        "witness": _witness_dict(rep.witness),
    }
    return body, (EXIT_OK if rep.ok else EXIT_COUNTEREXAMPLE)


def _witness_dict(w):
    if w is None:
        return None
    out = []
    for part in w:
        if isinstance(part, np.ndarray):
            out.append({"matrix": part.tolist(), "rows": part.shape[0], "cols": part.shape[1]})
        elif isinstance(part, sfunctor.SElement):
            out.append({"dim": part.dim, "index": part.index})
        elif hasattr(part, "basis_arr"):
            out.append({"subspace": part.basis_arr.tolist(), "ambient": part.ambient})
        else:
            out.append(str(part))
    return out


def run_check_noetherian(args) -> tuple[dict, int]:
    """weaker noetherianity plus regular-element report"""
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
    """regular classes, automorphism groups, hom matrix"""
    S = resolve_set_functor(args)
    elcat.require_connected(S)
    R = elcat.build_rector_skeleton(S, budget=args.budget_maps)
    homs = elcat.class_hom_sets(R, args.budget_maps)
    body = elcat.rector_report(R, homs)
    ok, wit = elcat.check_injectivity(S, R, args.budget_maps, homs)
    body["all_regular_morphisms_injective"] = ok
    if not ok:
        body["witness"] = {"matrix": wit.tolist()}
    return body, (EXIT_OK if ok else EXIT_COUNTEREXAMPLE)


def run_degree(args) -> tuple[dict, int]:
    """polynomial degree of a chosen functor"""
    from . import vfunctor

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
    if args.save_functor:
        with open(args.save_functor, "w") as fh:
            fh.write(json.dumps(vfunctor.functor_to_json(F, args.budget_maps), sort_keys=True))
    return body, EXIT_OK


def _dims_rows(F) -> list[dict]:
    return [
        {"class": r, "trivial_dim": v, "dim": d} for (r, v, d) in F.dims_list()
    ]


def run_delta(args) -> tuple[dict, int]:
    """iterated difference of a chosen functor"""
    from . import vfunctor

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
    if args.save_functor:
        with open(args.save_functor, "w") as fh:
            fh.write(json.dumps(vfunctor.functor_to_json(D, args.budget_maps), sort_keys=True))
    return body, EXIT_OK


def run_cross_effect(args) -> tuple[dict, int]:
    """joint omission kernel at a base object"""
    from . import vfunctor

    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    F = resolve_functor(sk, args.functor)
    r, v = args.base
    blocks = args.blocks
    cr = vfunctor.cross_effect(F, _object_index(sk, r, v), blocks)
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
    """simple modules of a small group"""
    from . import modrep

    kind = args.group.partition(":")[0]
    if kind == "sym":
        n = _spec_ints(args.group, "symmetric degree", _non_negative)
        _check_group_order(1, n, args.budget_group)
        G = modrep.FiniteGroup.symmetric(n)
    elif kind == "autsym":
        from . import vfunctor

        rclass, n = _spec_ints(args.group, "autsym class and degree", _non_negative_list(2))
        S = resolve_set_functor(args)
        sk = elcat.Skeleton(S, budget=args.budget_maps)
        if rclass >= len(sk.rector.classes):
            raise ValueError(f"the skeleton has no regular class {rclass} (it has {len(sk.rector.classes)})")
        _check_group_order(len(sk.rector.aut_groups[rclass]), n, args.budget_group)
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
    """classification run up to degree n-max"""
    from . import simples

    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    descs = simples.enumerate_simples(sk, args.n_max, seed=args.seed, group_budget=args.budget_group)
    body = simples.simples_report(descs, sk, args.n_max)
    return body, EXIT_OK


def run_verify_theorems(args) -> tuple[dict, int]:
    """run the full verification suites"""
    from . import modrep, simples, vfunctor

    S = resolve_set_functor(args)
    sk = elcat.Skeleton(S, budget=args.budget_maps)
    suites: dict[str, bool] = {}
    lifts: dict[int, vfunctor.VecFunctor] = {}
    counits: dict[int, tuple] = {}

    def tensor_lift(n: int) -> vfunctor.VecFunctor:
        # T^n on the window its suites need, built once so its mat cache is shared
        if n not in lifts:
            w = min(sk.window, max(3, n + 1))
            lifts[n] = vfunctor.forgetful_lift(sk, vfunctor.TensorPower(n, sk.p), window=w)
        return lifts[n]

    def counit(n: int) -> tuple:
        # the differenced counit of T^n, built once for the adjunction and quotient suites
        if n not in counits:
            counits[n] = vfunctor.differenced_counit(tensor_lift(n), n)
        return counits[n]

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
    rng = random.Random(args.seed)
    oks = []
    F2w = tensor_lift(2)
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
    for rclass, n in simples.simple_tasks(sk, args.n_max):
        if n == 0:
            continue
        G = vfunctor.aut_sigma_group(sk, rclass, n)
        M = vfunctor.sigma_functor_from_module(sk, rclass, n, modrep.regular_module(G, sk.p))
        rep = vfunctor.adjunction_check(M, tensor_lift(n), n, counit(n))
        ok_adj &= rep["dims_equal"] and rep["triangle_tensor"] and rep["triangle_difference"]
    suites["adjunction_dimensions_and_triangles"] = ok_adj

    # quotient equivalence instances; a degree-n certificate needs n+1 headroom
    ok_main = True
    for n in range(1, args.n_max + 1):
        if n + 1 > sk.window:
            continue
        ok_main &= simples.verify_quotient_equivalence(tensor_lift(n), n, counit(n))["ok"]
    suites["quotient_equivalence_instances"] = ok_main

    # the classification run itself
    descs = simples.enumerate_simples(sk, args.n_max, seed=args.seed, group_budget=args.budget_group)
    expected = 0
    for rclass, n in simples.simple_tasks(sk, args.n_max):
        G = vfunctor.aut_sigma_group(sk, rclass, n)
        expected += len(modrep.simple_modules(G, sk.p, seed=args.seed, budget=args.budget_group).simples)
    suites["classification_bijection"] = len(descs) == expected

    body = {
        "suites": suites,
        "simples_found": len(descs),
        "window": sk.window,
    }
    return body, (EXIT_OK if all(suites.values()) else EXIT_COUNTEREXAMPLE)


def run_demo(args) -> tuple[dict, int]:
    """run an action on a shipped builtin"""
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
    vars(args).update(COMMAND_DEFAULTS.get(action, {}))
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
    args = parse_args(argv)
    try:
        body, code = HANDLERS[args.command](args)
    except (BudgetExceeded, WindowExceeded, SplittingFailure, sfunctor.InvalidFunctorData,
            ValueError, OSError) as exc:
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
