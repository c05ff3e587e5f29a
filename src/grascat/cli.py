"""Command-line surface: thin adapters over the library modules.

Output is JSON by default; ``--format table`` renders the aligned text used
for the golden-file comparisons.  Exit codes: 0 success, 1 computation
error (with a structured error object on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import braid as braid_mod
from . import cluster, einv, fixtures, gvec, hl
from . import tableaux as tb
from .cmcat import KSubset, Profile, cyclic_shift_profile, profile_balance_check
from .errors import BadParameters, DimensionMismatch, GrascatError, is_int, json_fields, list_of


def _load_json_arg(value: str) -> dict:
    if value.strip()[:1] in "{[":
        return json.loads(value)
    with open(value) as fh:
        return json.load(fh)


def _resolve_seed(name: str) -> cluster.Seed:
    """The initial seed of Gr(K, N) named grK_N, a seed JSON literal, or its file."""
    match = re.fullmatch(r"gr(\d+)_(\d+)", name)
    if match:
        return cluster.grassmannian_initial_seed(int(match[1]), int(match[2]))
    if name.strip()[:1] in "{[" or os.path.isfile(name):
        return cluster.Seed.from_json(_load_json_arg(name))
    raise BadParameters(
        f"--seed {name!r} is not a seed: give grK_N with 2 <= K <= N-2 (such as gr3_9), "
        "a seed JSON object, or the path of a seed JSON file"
    )


def _resolve_algebra(name: str):
    """(algebra, k, n) of the tame algebra named gr39 or qp_gr39 (and so on)."""
    key = name.removeprefix("qp_")
    return (fixtures.tame_algebra(key), *fixtures.TAME[key])


def _emit(payload, fmt: str, table_text: str | None = None) -> None:
    if fmt == "table" and table_text is not None:
        sys.stdout.write(table_text)
        if not table_text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")


# --- table renderings used by paper-tables ----------------------------------


def render_hom_table(key: str) -> str:
    blocks = {
        "hom39": ("gr39", ["125", "126", "134", "128", "156", "167"]),
        "hom48": ("gr48", ["1236", "1245", "1267", "1456"]),
    }
    algname, names = blocks[key]
    alg = fixtures.tame_algebra(algname)
    width = max(len(x) for x in names) + 2
    lines = [f"hom dimensions between projectives ({algname})"]
    lines.append(" " * width + "".join(x.rjust(width) for x in names))
    for r, dims in zip(names, alg.hom_table(names)):
        lines.append(r.rjust(width) + "".join(str(d).rjust(width) for d in dims))
    return "\n".join(lines) + "\n"


def render_kr_grid(k: int = 5, ell: int = 3) -> str:
    lines = [f"kirillov-reshetikhin subsets, k={k} ell={ell} (columns i=1..{k - 1})"]
    # each column's mutable levels, top first, then its frozen one
    mutable, frozen = hl.gamma_vertices(k, -2 * ell - 2)
    columns = [[m for j, m in mutable + frozen if j == i] for i in range(1, k)]
    for row in zip(*columns):
        lines.append("".join(str(hl.kr_subset(i, m, k, ell)).rjust(2 * k + 2)
                             for i, m in enumerate(row, 1)))
    return "\n".join(lines) + "\n"


def render_gvectors(key: str) -> str:
    data = fixtures.nonreal(key)
    k, n = data["k"], data["n"]
    seed = cluster.grassmannian_initial_seed(k, n)
    lines = [f"g-vectors over the initial seed at ({k},{n})"]
    for item in data["tableaux"] + data["braid_images"]:
        t = tb.Tableau.make(k, n, item["rows"])
        g = gvec.g_vector(t, seed)
        lines.append(f"{item['name']}: ({', '.join(str(c) for c in g.coords)})")
    return "\n".join(lines) + "\n"


PAPER_TABLES = {
    "hom39": lambda: render_hom_table("hom39"),
    "hom48": lambda: render_hom_table("hom48"),
    "kr53": render_kr_grid,
    "gvecs39": lambda: render_gvectors("gr39"),
    "gvecs48": lambda: render_gvectors("gr48"),
}


# --- subcommand handlers ------------------------------------------------------


def _cmd_tableau(args) -> None:
    t = tb.Tableau.from_json(_load_json_arg(args.input))
    if args.op == "reduce":
        out = tb.reduce(t)
    elif args.op == "promote":
        out = tb.promote(t)
    elif args.op == "bk":
        out = tb.bender_knuth(t, args.i)
    elif args.op == "union":
        out = tb.union(t, tb.Tableau.from_json(_load_json_arg(args.other)))
    elif args.op == "quotient":
        out = tb.quotient(t, tb.Tableau.from_json(_load_json_arg(args.other)))
    elif args.op == "to-monomial":
        _emit(tb.tableau_to_monomial(t).to_json(), args.format)
        return
    elif args.op == "dominance":
        other = tb.Tableau.from_json(_load_json_arg(args.other))
        _emit({"comparison": tb.dominance_compare(t, other).value}, args.format)
        return
    _emit(out.to_json(), args.format, str(out))


def _cmd_monomial(args) -> None:
    mono = tb.DominantMonomial.from_json(_load_json_arg(args.input))
    t = tb.monomial_to_tableau(mono)
    _emit(t.to_json(), args.format, str(t))


def _cmd_seed(args) -> None:
    seed = _resolve_seed(args.seed)
    if args.op == "init":
        _emit(seed.to_json(), args.format)
    elif args.op == "mutate":
        for r in args.at:
            seed = cluster.mutate_seed(seed, r)
        _emit(seed.to_json(), args.format)
    elif args.op == "explore":
        result = cluster.explore(seed, args.depth, args.max_seeds)
        payload = {
            "seeds_seen": result.seeds_seen,
            "complete": result.complete,
            "variables": [
                {"tableau": t.to_json(), "g": list(g)}
                for t, g in sorted(result.variables.items(), key=lambda kv: kv[1])
            ],
        }
        _emit(payload, args.format)


def _cmd_gvec(args) -> None:
    seed = _resolve_seed(args.seed)
    t = tb.Tableau.from_json(_load_json_arg(args.tableau))
    g = gvec.g_vector(t, seed)
    cp = gvec.cone_presentation(g)
    payload = {
        "coords": list(g.coords),
        "labels": [str(lab.to_subset()) for lab in seed.labels],
        "sub": [str(s) for s in cp.sub],
        "quot": [str(s) for s in cp.quot],
    }
    table = "g = (" + ", ".join(str(c) for c in g.coords) + ")"
    _emit(payload, args.format, table)


def _cmd_einv(args) -> None:
    alg, k, n = _resolve_algebra(args.algebra)
    seed = _resolve_seed(args.seed) if args.seed else cluster.grassmannian_initial_seed(k, n)

    def to_gvector(path: str) -> gvec.GVector:
        data = _load_json_arg(path)
        if isinstance(data, list):
            data = {"coords": data}
        (coords,) = json_fields(data, "g-vector", coords=list_of(is_int))
        return gvec.GVector(seed, tuple(coords))

    g = to_gvector(args.g)
    if args.pair:
        h = to_gvector(args.pair)
        report = einv.generic_e_pair(g, h, alg, args.samples, args.field, args.master_seed)
    else:
        report = einv.generic_e(g, alg, args.samples, args.field, args.master_seed)
    payload = {
        "value": report.value,
        "certified": report.certified,
        "exact": report.exact,
        "lower_bound": report.lower_bound,
        "samples": report.samples,
        "field": report.field,
        "note": "zero values are exact, and so are values on lower_bound, the term-rank "
                "floor; other positive values are sampled estimates",
    }
    _emit(payload, args.format, report.describe())


def _cmd_hl(args) -> None:
    if args.op == "kr":
        out = hl.kr_subset(args.i, args.m, args.k, args.ell)
        _emit({"subset": list(out.elems), "n": out.n}, args.format, str(out))
    elif args.op == "kernel":
        out = hl.kernel_subset(args.i, args.m, args.v, args.k, args.ell)
        _emit({"subset": list(out.elems), "n": out.n}, args.format, str(out))
    elif args.op == "tau":
        n = args.k + args.ell + 1
        out = hl.tau_kernel_subset(args.i, args.m, args.v, args.k, n)
        _emit({"subset": list(out.elems), "n": out.n}, args.format, str(out))
    elif args.op == "compat":
        verdict = hl.kr_compatible(
            args.v, args.m, args.i, args.v2, args.m2, args.i2,
            args.k, args.ell, samples=args.samples,
            master_seed=args.master_seed,
        )
        payload = {
            "compatible": bool(verdict),
            "conjectural": verdict.conjectural,
            "e_value": verdict.report.value,
            "certified": verdict.report.certified,
        }
        _emit(payload, args.format)
    elif args.op == "mutseq":
        seq = hl.hl_mutation_sequence(args.k, args.ell)
        _emit({"sequence": [list(c) for c in seq]}, args.format)
    elif args.op == "gamma":
        _emit(hl.gamma_quiver(args.k, args.s).to_json(), args.format)
    elif args.op == "qell":
        _emit(hl.q_ell_quiver(args.k, args.ell).to_json(), args.format)


def _cmd_braid(args) -> None:
    if args.trials < 0:
        raise BadParameters(f"--trials must be >= 0, got {args.trials}")
    braid_mod.check_shape(args.k, args.n)
    master = einv.resolve_master_seed(args.master_seed)
    aggregate = {
        "trials": args.trials,
        "k": args.k,
        "n": args.n,
        "genericity_preserved": 0,
        "periodicity_exact": 0,
        "commutation_exact": 0,
        "braid_tuple_exact": 0,
        "braid_plucker_exact": 0,
    }
    for trial in range(args.trials):
        t = braid_mod.random_tuple(args.k, args.n, np.random.default_rng([master, trial]))
        report = braid_mod.braid_property_check(t)
        aggregate["genericity_preserved"] += report.genericity_preserved
        aggregate["periodicity_exact"] += all(report.periodicity.values())
        aggregate["commutation_exact"] += (
            all(report.commutation.values()) if report.commutation else True
        )
        aggregate["braid_tuple_exact"] += all(report.braid_tuple_equal.values())
        aggregate["braid_plucker_exact"] += all(report.braid_plucker.values())
    _emit(aggregate, args.format)


def _cmd_profile(args) -> None:
    k, n, factors = json_fields(
        _load_json_arg(args.profile), "profile",
        k=is_int, n=is_int, factors=list_of(list_of(is_int)),
    )
    if not 1 <= k <= n:
        raise BadParameters(f"a profile needs 1 <= k <= n, got k={k}, n={n}")
    if any(len(f) != k for f in factors):
        raise DimensionMismatch(f"every profile factor needs k={k} entries")
    prof = Profile(tuple(KSubset(n, tuple(f)) for f in factors))
    if args.op == "shift":
        shifted = cyclic_shift_profile(prof, args.a)
        _emit(
            {"k": k, "n": n, "factors": [list(f.elems) for f in shifted.factors]},
            args.format,
        )
        return
    seed = _resolve_seed(args.seed)
    t = tb.Tableau.from_json(_load_json_arg(args.tableau))
    cp = gvec.cone_presentation(gvec.g_vector(t, seed))
    ok = profile_balance_check(prof, cp.sub, cp.quot)
    _emit({"balanced": ok}, args.format, "balanced" if ok else "UNBALANCED")


def _cmd_paper_tables(args) -> None:
    text = PAPER_TABLES[args.which]()
    if args.format == "json":
        _emit({"which": args.which, "text": text}, "json")
    else:
        sys.stdout.write(text)


# Options that only some ops of a verb need, so argparse cannot mark them
# required: (verb, op) -> option dest.
_OP_OPTIONS = {
    ("tableau", "union"): "other",
    ("tableau", "quotient"): "other",
    ("tableau", "dominance"): "other",
    ("profile", "check"): "tableau",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grascat",
        description="tableau/cluster combinatorics for Grassmannian cluster algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table"], default="json")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("tableau", help="tableau operations")
    p.add_argument("op", choices=["reduce", "promote", "bk", "union", "quotient",
                                  "to-monomial", "dominance"])
    p.add_argument("--in", dest="input", required=True, help="tableau JSON (file or literal)")
    p.add_argument("--other", help="second tableau JSON for binary ops")
    p.add_argument("--i", type=int, default=1, help="Bender-Knuth index")
    p.set_defaults(func=_cmd_tableau)

    p = add_parser("monomial", help="dominant monomial to tableau")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_monomial)

    p = add_parser("seed", help="seed construction, mutation, exploration")
    p.add_argument("op", choices=["init", "mutate", "explore"])
    p.add_argument("--seed", default="gr3_9", help="grK_N (such as gr3_9), seed JSON, or its file")
    p.add_argument("--at", type=int, nargs="+", default=[], help="mutation vertices, in order")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--max-seeds", type=int, default=10000)
    p.set_defaults(func=_cmd_seed)

    p = add_parser("gvec", help="g-vector of a tableau over a seed")
    p.add_argument("--tableau", required=True)
    p.add_argument("--seed", default="gr3_9")
    p.set_defaults(func=_cmd_gvec)

    p = add_parser("einv", help="sampled generic E-invariants")
    p.add_argument("--g", required=True, help="g-vector JSON: {'coords': [...]} or a list")
    p.add_argument("--pair", help="second g-vector for the paired invariant")
    algebras = [f"qp_{key}" for key in fixtures.TAME] + list(fixtures.TAME)
    p.add_argument("--algebra", default="qp_gr39", choices=algebras)
    p.add_argument("--seed", help="seed for coordinate labels (defaults to the algebra's)")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--field", choices=["rational", "fp"], default="rational")
    p.add_argument("--master-seed", type=int, default=None)
    p.set_defaults(func=_cmd_einv)

    p = add_parser("hl", help="Hernandez-Leclerc quivers and subsets")
    p.add_argument("op", choices=["kr", "kernel", "tau", "compat", "mutseq", "gamma", "qell"])
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--m", type=int, default=-2)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--i2", type=int, default=1)
    p.add_argument("--m2", type=int, default=-2)
    p.add_argument("--v2", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--s", type=int, default=-2)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--master-seed", type=int, default=None)
    p.set_defaults(func=_cmd_hl)

    p = add_parser("braid", help="braid action property checks")
    p.add_argument("op", choices=["check"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", "--master-seed", dest="master_seed", type=int, default=None)
    p.set_defaults(func=_cmd_braid)

    p = add_parser("profile", help="profile balance checks and shifts")
    p.add_argument("op", choices=["check", "shift"])
    p.add_argument("--profile", required=True)
    p.add_argument("--tableau")
    p.add_argument("--seed", default="gr3_9")
    p.add_argument("--a", type=int, default=1)
    p.set_defaults(func=_cmd_profile)

    p = add_parser("paper-tables", help="regenerate the golden tables")
    p.add_argument("--which", required=True, choices=sorted(PAPER_TABLES))
    p.set_defaults(func=_cmd_paper_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needed = _OP_OPTIONS.get((args.verb, getattr(args, "op", None)))
    if needed and getattr(args, needed) is None:
        parser.error(f"{args.verb} {args.op} needs --{needed}")
    try:
        args.func(args)
    except (GrascatError, OSError, KeyError, ValueError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
