"""Command line front end.

One verb per module area: validate, matroid, poly, electrical, rep, dual,
verify. Networks come from an inline generator spec (--gen family:args) or
a JSON file (--file). Output is plain text by default, one JSON document
with --json; identical inputs and seed produce byte-identical output.
Exit status: 0 on success (for verify, only when every asserted property
passed), 1 when a domain error surfaces, 2 for bad usage.
"""

import argparse
import json
import sys
from fractions import Fraction

from .circular import dual_network, duality_theorem_check
from .dirichlet import connectivity_criteria, dirichlet_matroid
from .electrical import (
    hpp_sample,
    identity_sweep,
    interlacing,
    monotonicity_and_bound,
    response,
)
from .errors import BadParameter, DomainError
from .families import parse_generator
from .grovepoly import (
    chromatic_poly,
    cpintro_compare,
    hexwheel_report,
    hexwheel_scan,
    precoloring_poly,
)
from .linrep import min_field_size, representability
from .network import Network
from .polynomials import IntPoly
from .verify import SUITES, run_suite, triangulate


def _load_network(args):
    if getattr(args, "gen", None) and getattr(args, "file", None):
        raise BadParameter("give either --gen or --file, not both")
    if getattr(args, "gen", None):
        return parse_generator(args.gen)
    if getattr(args, "file", None):
        return Network.from_file(args.file)
    return None


def _require_network(parser, args):
    net = _load_network(args)
    if net is None:
        parser.error("a network is required (--gen family:args or --file path)")
    return net


def _lim(args, fallback):
    return args.limit if args.limit is not None else fallback


def _jsonable(obj):
    """Reports down to JSON-safe values, deterministically."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(str(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, IntPoly):
        return obj.pretty()
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    return str(obj) if not isinstance(obj, str) else obj


def _emit(args, report, text_lines):
    if args.json:
        print(json.dumps(_jsonable(report), sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _one_action(parser, args, names):
    # by identity: a count of 0 is given, though 0 == False
    given = [getattr(args, n.replace("-", "_")) for n in names]
    chosen = [n for n, v in zip(names, given) if v is not None and v is not False]
    if len(chosen) != 1:
        parser.error(f"choose exactly one of: {', '.join('--' + n for n in names)}")
    return chosen[0]


def _parse_point(text):
    """'e1=3,e2=1/2' -> {'e1': Fraction(3), 'e2': Fraction(1,2)}."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, eq, val = part.partition("=")
        if not eq:
            raise BadParameter(f"bad point entry {part!r}; expected label=value")
        try:
            out[label.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise BadParameter(f"bad rational value in {part!r}") from None
    if not out:
        raise BadParameter("empty point specification")
    return out


def _set_arg(text):
    return [s.strip() for s in text.split(",") if s.strip()]


# -- verb handlers -------------------------------------------------------------


def _cmd_validate(parser, args):
    net = _require_network(parser, args)
    circular = hasattr(net, "faces")
    report = {
        "name": net.name,
        "vertices": len(net.vertices),
        "boundary": list(net.boundary_order) if circular else sorted(net.boundary),
        "edges": len(net.edges),
        "circular": circular,
        "ok": True,
    }
    lines = [
        f"ok: {net.name} ({report['vertices']} vertices, "
        f"{len(net.boundary)} boundary, {report['edges']} edges)"
    ]
    if circular:
        report["interior_faces"] = len(net.interior_face_names)
        lines.append(
            f"circular embedding: {report['interior_faces']} interior faces, "
            f"arcs {', '.join(net.arc_names)}"
        )
    _emit(args, report, lines)
    return 0


def _cmd_matroid(parser, args):
    net = _require_network(parser, args)
    matroid = dirichlet_matroid(net)
    if args.rank is not None:
        labels = _set_arg(args.rank)
        r = matroid.rank(labels)
        report = {"set": sorted(labels), "rank": r}
        _emit(args, report, [f"rank({{{', '.join(sorted(labels))}}}) = {r}"])
        return 0
    if args.connectivity:
        crit = connectivity_criteria(net)
        report = dict(crit)
        report["network"] = net.name
        lines = [f"{k}: {v}" for k, v in sorted(crit.items())]
        guard = _lim(args, 20)
        if len(matroid.ground) <= guard:
            tc = matroid.tutte_connectivity(limit=guard)
            report["tutte_connectivity"] = tc
            lines.append(f"tutte_connectivity: {tc}")
        _emit(args, report, lines)
        return 0
    if args.list is not None:
        kind = args.list
        if kind == "bases":
            fams = matroid.bases(limit=_lim(args, 20))
        elif kind == "circuits":
            fams = matroid.circuits(limit=_lim(args, 16))
        else:
            fams = matroid.cocircuits(limit=_lim(args, 16))
        sets = [sorted(f) for f in fams]
        report = {"network": net.name, "kind": kind, "count": len(sets), "sets": sets}
        lines = [f"{len(sets)} {kind}"]
        lines.extend("{" + ", ".join(s) + "}" for s in sets)
        _emit(args, report, lines)
        return 0
    report = {
        "network": net.name,
        "ground": sorted(matroid.ground),
        "rank": matroid.full_rank(),
    }
    _emit(
        args,
        report,
        [f"{net.name}: ground {len(matroid.ground)}, rank {matroid.full_rank()}"],
    )
    return 0


def _cmd_poly(parser, args):
    net_needed = args.hexwheel_scan is None
    net = _require_network(parser, args) if net_needed else _load_network(args)
    action = _one_action(
        parser, args, ["precoloring", "chromatic", "compare-cpintro", "hexwheel-scan"]
    )
    if action == "precoloring":
        p = precoloring_poly(net)
        _emit(args, {"network": net.name, "precoloring": p.pretty("λ")}, [p.pretty("λ")])
        return 0
    if action == "chromatic":
        p = chromatic_poly(net)
        _emit(args, {"network": net.name, "chromatic": p.pretty("λ")}, [p.pretty("λ")])
        return 0
    if action == "compare-cpintro":
        rep = cpintro_compare(net)
        rep["network"] = net.name
        lines = [
            f"a = {rep['a']}",
            f"b = {rep['b']}",
            f"dominates: {rep['dominates']}",
            f"equal below {rep['equal_below']}: {rep['equal_ok']}",
        ]
        _emit(args, rep, lines)
        return 0
    rows = hexwheel_scan(args.hexwheel_scan)
    report = {
        "m_max": args.hexwheel_scan,
        "rows": [
            {
                "m": r["m"],
                "poly": r["poly"].pretty("λ"),
                "agreements": sorted(r["agreements"]),
                "mismatches": sorted(r["mismatches"]),
            }
            for r in rows
        ],
    }
    _emit(args, report, [hexwheel_report(rows)])
    return 0


def _cmd_electrical(parser, args):
    net = _require_network(parser, args)
    action = _one_action(
        parser, args, ["response", "identities", "hpp-sample", "interlace", "bound-sample"]
    )
    if action == "response":
        lam = response(net, _parse_point(args.response))
        entries = [[str(v) for v in row] for row in lam.entries]
        report = {
            "network": net.name,
            "boundary_order": list(lam.boundary_order),
            "entries": entries,
            "det_interior": str(lam.det_interior),
        }
        lines = ["boundary order: " + ", ".join(lam.boundary_order)]
        lines.extend("  ".join(row) for row in entries)
        lines.append(f"det D = {lam.det_interior}")
        _emit(args, report, lines)
        return 0
    if action == "identities":
        rep = identity_sweep(net, trials=_lim(args, 200), seed=args.seed)
        lines = [
            f"{rep['network']}: {rep['points']} points, "
            f"{rep['skipped_singular']} singular skipped, ok={rep['all_ok']}"
        ]
        _emit(args, rep, lines)
        return 0 if rep["all_ok"] else 1
    if action == "hpp-sample":
        rep = hpp_sample(net, trials=args.hpp_sample, seed=args.seed)
        lines = [
            f"{rep['network']}: {rep['trials']} trials, {rep['checks']} checks, "
            f"nonnegative={rep['all_nonnegative']}"
        ]
        _emit(args, rep, lines)
        return 0 if rep["all_nonnegative"] else 1
    if action == "interlace":
        base, direction = args.interlace
        rep = interlacing(net, _parse_point(base), _parse_point(direction))
        lines = [
            f"P0 = {rep['P0'].pretty()}",
            f"P1 = {rep['P1'].pretty()}",
            f"real rooted: {rep['real_rooted']}",
            f"interlaces: {rep['interlaced']}",
        ]
        _emit(args, rep, lines)
        return 0 if rep["interlaced"] else 1
    rep = monotonicity_and_bound(net, trials=args.bound_sample, seed=args.seed)
    lines = [
        f"{rep['network']}: {rep['trials']} trials, ok={rep['all_ok']}"
    ]
    _emit(args, rep, lines)
    return 0 if rep["all_ok"] else 1


def _cmd_rep(parser, args):
    net = _require_network(parser, args)
    if args.field is None and not args.check:
        parser.error("choose --field q and/or --check")
    report = {"network": net.name}
    lines = []
    code = 0
    if args.field is not None:
        rec = representability(net, args.field)
        report["field"] = rec["field"]
        report["max_block_boundary"] = rec["max_block_boundary"]
        report["representable"] = rec["representable"]
        report["verified"] = rec["verified"]
        lines.append(
            f"representable over {rec['field']}: {rec['representable']} "
            f"(threshold {rec['max_block_boundary']})"
        )
    if args.check:
        sizes = min_field_size(net, strict=False)
        tri = triangulate(net)
        report["min_field_size"] = sizes["min_field_size"]
        report["chromatic_number"] = sizes["chromatic_number"]
        report["consistent"] = sizes["consistent"]
        report["triangulation_ok"] = tri["all_ok"]
        lines.append(
            f"min field size {sizes['min_field_size']} "
            f"(crossing chromatic number {sizes['chromatic_number']}, "
            f"consistent={sizes['consistent']})"
        )
        lines.append(
            f"rational representation agrees on all {tri['subsets']} subsets: "
            f"{tri['all_ok']}"
        )
        if not tri["all_ok"]:
            code = 1
    _emit(args, report, lines)
    return code


def _cmd_dual(parser, args):
    net = _require_network(parser, args)
    action = _one_action(parser, args, ["build", "theorem-check"])
    if action == "build":
        dual = dual_network(net)
        report = {
            "network": net.name,
            "dual_name": dual.name,
            "regions": list(dual.vertices),
            "rim_arcs": list(dual.boundary_order),
            "edges": {e: [u, v] for e, (u, v) in sorted(dual.edges.items())},
        }
        lines = [f"dual {dual.name}: regions {', '.join(dual.vertices)}"]
        lines.append(f"rim arcs: {', '.join(dual.boundary_order)}")
        lines.extend(f"  {e}: {u} -- {v}" for e, (u, v) in sorted(dual.edges.items()))
        _emit(args, report, lines)
        return 0
    rep = duality_theorem_check(net)
    lines = [
        f"{rep['network']}: {rep['cocircuits']} cocircuits, all_ok={rep['all_ok']}"
    ]
    for row in rep["rows"]:
        if row["type"] == "cover":
            lines.append(
                f"  cover k={row['k']} for {{{', '.join(sorted(row['cocircuit']))}}}"
            )
    if "dual_iso" in rep:
        lines.append(f"  dual isomorphism: {rep['dual_iso']}")
    _emit(args, rep, lines)
    return 0 if rep["all_ok"] else 1


def _cmd_verify(parser, args):
    net = _load_network(args)
    nets = [net] if net is not None else None
    rep = run_suite(args.suite, seed=args.seed, nets=nets)
    lines = []
    if args.suite == "all":
        for sub in rep["reports"]:
            lines.append(f"{sub['suite']}: {'ok' if sub['all_ok'] else 'FAILED'}")
    else:
        for row in rep.get("rows", []):
            name = row.get("network", row.get("m"))
            verdict = row.get("ok")
            if verdict is None:
                verdict = all(
                    v for k, v in row.items() if isinstance(v, bool)
                )
            lines.append(f"{name}: {'ok' if verdict else 'FAILED'}")
    lines.append("ALL OK" if rep["all_ok"] else "FAILURES PRESENT")
    _emit(args, rep, lines)
    return 0 if rep["all_ok"] else 1


# -- parser --------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--gen", help="inline generator, e.g. star:3 or sunflower:5")
    sub.add_argument("--file", help="path to a network JSON file")
    sub.add_argument("--json", action="store_true", help="emit one JSON document")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampling (default 0)")
    sub.add_argument("--limit", type=int, default=None,
                     help="size guard for enumerations and sample counts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="net",
        description="Exact matroid, polynomial, and electrical invariants of "
        "networks with boundary.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("validate", help="construct and validate a network")
    _add_common(p)

    p = subs.add_parser("matroid", help="matroid oracle queries and enumeration")
    _add_common(p)
    p.add_argument("--list", choices=["bases", "circuits", "cocircuits"])
    p.add_argument("--rank", metavar="SET", help="comma-separated labels, eh allowed")
    p.add_argument("--connectivity", action="store_true")

    p = subs.add_parser("poly", help="polynomial invariants")
    _add_common(p)
    p.add_argument("--precoloring", action="store_true")
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--compare-cpintro", action="store_true")
    p.add_argument("--hexwheel-scan", type=int, metavar="M")

    p = subs.add_parser("electrical", help="response matrix and sampled identities")
    _add_common(p)
    p.add_argument("--response", metavar="X", help="point, e.g. e1=3,e2=1/2")
    p.add_argument("--identities", action="store_true")
    p.add_argument("--hpp-sample", type=int, metavar="N")
    p.add_argument("--interlace", nargs=2, metavar=("X", "Y"))
    p.add_argument("--bound-sample", type=int, metavar="N")

    p = subs.add_parser("rep", help="linear representations over finite fields")
    _add_common(p)
    p.add_argument("--field", type=int, metavar="q")
    p.add_argument("--check", action="store_true")

    p = subs.add_parser("dual", help="circular duals and the cocircuit cover check")
    _add_common(p)
    p.add_argument("--build", action="store_true")
    p.add_argument("--theorem-check", action="store_true")

    p = subs.add_parser("verify", help="one-shot verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "matroid": _cmd_matroid,
    "poly": _cmd_poly,
    "electrical": _cmd_electrical,
    "rep": _cmd_rep,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](parser, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
