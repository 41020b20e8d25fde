"""Command line front end.

One subcommand family per module: poly (polycyclic elements), mpc (prefix
codes), graph (graph inverse semigroup elements), finite (multiplication
tables), thompson (Cuntz monoid units as tree pairs), selftest (the seeded
randomized cross-checks of stonedual.selftest).  Results print as stable
human text, or as JSON lines with --json, one record per result so long
enumerations stream.  Exit codes: 0 success, 1 domain error with a
diagnostic on stderr, 2 usage error, 3 internal error (a result that breaks
a proven invariant).
Table sizes are capped by the STONEDUAL_MAX_ELEMENTS environment variable
(default 2000).
Each handler imports the layers it uses, so a run loads only its own: the
element subcommands run without numpy.
"""

import argparse
import os
import sys

from . import InternalError


def _op(args):
    """The op name of every record of a run: its family and subcommand."""
    return "%s.%s" % (args.cmd, args.sub) if hasattr(args, "sub") else args.cmd


def _show(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ",".join(v) if v else "none"
    return v


def _answer(args, value, label=None):
    """(records, lines) of a one-value answer or a report.  A string prints as
    is and a flag as true or false, after "label: " when given; a report, a
    dict, prints "key: value" per field, a list joined by commas or none."""
    if isinstance(value, dict):
        return [dict(value, op=_op(args))], ["%s: %s" % (k, _show(v)) for k, v in value.items()]
    line = _show(value) if label is None else "%s: %s" % (label, _show(value))
    return [{"op": _op(args), "result": value}], [line]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json records, human lines)


def cmd_poly(args):
    from . import polycyclic as pc

    n = args.n
    a = pc.parse_poly(args.a, n)
    if args.sub == "arrow":
        return _answer(args, pc.lenz_arrow(a, [pc.parse_poly(t, n) for t in args.b.split(",")]))
    b = pc.parse_poly(args.b, n)
    if args.sub == "leq":
        return _answer(args, pc.poly_leq(a, b))
    product = pc.poly_mul if args.sub == "mul" else pc.poly_meet
    return _answer(args, pc.format_poly(product(a, b)))


def cmd_mpc(args):
    from . import words as wd

    n, r = args.n, args.r
    code = [wd.parse_rooted(t, n, r) for t in args.code.split(",")]
    if args.sub == "check":
        return _answer(args, wd.is_rooted_maximal_prefix_code(code, n, r), "maximal prefix code")
    records, lines = [], []
    for root in range(1, r + 1):
        ws = [wd.Word(n, w.letters) for w in code if w.root == root]
        if not ws:
            raise ValueError("empty code at root %d" % root)
        total = wd.kraft_sum(ws, n)
        records.append({"op": _op(args), "root": root, "sum": str(total)})
        if r == 1:
            lines.append("kraft sum: %s" % total)
        else:
            lines.append("root %d: %s" % (root, total))
    return records, lines


def cmd_graph(args):
    from . import graphisg
    from . import words as wd

    with open(args.graph) as handle:
        graph = wd.DirectedGraph.from_text(handle)
    if args.sub == "analyze":
        return _answer(args, graphisg.semilattice_predicates(graph))
    a = graphisg.parse_gisg(args.a, graph)
    if args.sub == "arrow":
        B = [graphisg.parse_gisg(t, graph) for t in args.b.split(",")]
        return _answer(args, graphisg.gisg_lenz_arrow(a, B))
    b = graphisg.parse_gisg(args.b, graph)
    return _answer(args, graphisg.format_gisg(graphisg.gisg_mul(a, b)))


def cmd_finite(args):
    from . import finitesgp

    with open(args.table) as handle:
        S = finitesgp.MulTable.from_text(handle)
    sub = args.sub
    if sub == "validate":
        ident = S.find_identity()
        rec = {
            "op": _op(args),
            "elements": S.m,
            "zero": S.name(S.zero),
            "identity": None if ident is None else S.name(ident),
        }
        return [rec], ["valid table: %d elements" % S.m]
    if sub == "predicates":
        return _answer(args, finitesgp.predicates(S))
    if sub == "congfree":
        return _answer(args, finitesgp.is_congruence_free(S), "congruence-free")
    if sub == "simplifying":
        return _answer(args, finitesgp.is_zero_simplifying(S), "0-simplifying")
    if sub == "complete":
        from . import filtercomp

        comp = filtercomp.distributive_completion(S)
        # a distributive completion of a finite table is Boolean
        head = {"op": _op(args), "size": len(comp.names), "boolean": True}
        head.update(filtercomp.booleanization_report(S))
        lines = ["completion size: %d" % len(comp.names), "boolean: true"]
        records = [head]
        for i, name in enumerate(comp.names):
            records.append({"class": i, "name": name})
            lines.append("class %d: %s" % (i, name))
        if args.dump:  # the text ends with its one newline, which print adds back
            head["text"] = text = comp.D.to_text()
            lines.append(text[:-1])
        return records, lines
    if sub == "dualize":
        from . import duality

        # the groupoid accepts only Boolean meet tables, and on those the
        # round trip holds (Lawson's finite duality)
        G = duality.ultrafilter_groupoid(S)
        records, lines = _answer(args, {"objects": len(G.objects), "arrows": G.m,
                                        "roundtrip": True})
        if args.dump:
            records[0]["text"] = text = G.to_text()
            lines.append(text[:-1])
        return records, lines
    if sub == "classify":
        from . import duality

        k, extra = duality.classify_symmetric(S)
        if k is None:
            return (
                [{"op": _op(args), "result": None, "reason": extra}],
                ["not symmetric: %s" % extra],
            )
        return _answer(args, "I(%d)" % k)
    ideals = finitesgp.tightly_closed_ideals(S)  # smallest first, then by members
    records = [{"op": _op(args), "count": len(ideals)}]
    lines = ["tightly closed ideals: %d" % len(ideals)]
    for ideal in ideals:
        names = [S.name(s) for s in sorted(ideal)]
        records.append({"ideal": names})
        lines.append("ideal {%s}" % ",".join(names))
    return records, lines


def cmd_thompson(args):
    from . import thompson as th

    n, r = args.n, args.r
    if args.sub == "fromunit":
        return _answer(args, th.format_tree_pair(th.tp_from_unit(th.parse_cuntz(args.a, n, r))))
    g = th.parse_tree_pair(args.a, n, r)
    if args.sub == "tounit":
        return _answer(args, th.format_cuntz(th.tp_to_unit(g)))
    if args.sub in ("inv", "reduce"):
        step = th.tp_inv if args.sub == "inv" else th.tp_reduce
        return _answer(args, th.format_tree_pair(step(g)))
    h = th.parse_tree_pair(args.b, n, r)
    if args.sub == "eq":
        return _answer(args, th.tp_eq(g, h))
    return _answer(args, th.format_tree_pair(th.tp_mul(g, h)))


def cmd_selftest(args):
    import random

    from .selftest import SELFTESTS

    names = list(SELFTESTS) if args.suite == "all" else [args.suite]
    records, lines = [], []
    for name in names:
        try:
            checks = SELFTESTS[name](random.Random(args.seed))
        except ValueError as exc:
            raise ValueError("selftest %s: %s" % (name, exc)) from None
        records.append(
            {
                "op": _op(args),
                "suite": name,
                "seed": args.seed,
                "checks": checks,
                "ok": True,
            }
        )
        lines.append("selftest %s: ok (%d checks)" % (name, checks))
    return records, lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser(argv=None):
    """The whole parser, or for argv only the families named in it: the
    others stay stubs, which are all the top level's help and errors read."""
    ap = argparse.ArgumentParser(
        prog="stonedual",
        description="exact computation in inverse semigroups and their duals",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit JSON lines instead of text"
    )

    def family(name, text, parents=()):
        p = sub.add_parser(name, parents=list(parents), help=text)
        return p if argv is None or name in argv else None

    poly = family("poly", "polycyclic monoid elements")
    if poly is not None:
        psub = poly.add_subparsers(dest="sub", required=True)
        for name, bhelp in (
            ("mul", "second factor"),
            ("meet", "second element"),
            ("leq", "upper element"),
            ("arrow", "comma separated target set"),
        ):
            p = psub.add_parser(name, parents=[common])
            p.add_argument("-n", type=int, default=2, help="alphabet size")
            p.add_argument("a", help="element literal like ab.b^-1")
            p.add_argument("b", help=bhelp)

    mpc = family("mpc", "maximal prefix codes")
    if mpc is not None:
        msub = mpc.add_subparsers(dest="sub", required=True)
        for name in ("check", "kraft"):
            p = msub.add_parser(name, parents=[common])
            p.add_argument("-n", type=int, default=2, help="alphabet size")
            p.add_argument("-r", type=int, default=1, help="number of roots")
            p.add_argument("code", help="comma separated words, r2:ab style roots")

    graph = family("graph", "graph inverse semigroup elements")
    if graph is not None:
        gsub = graph.add_subparsers(dest="sub", required=True)
        p = gsub.add_parser("analyze", parents=[common])
        p.add_argument("graph", help="graph file (vertex/edge lines)")
        for name, bhelp in (
            ("mul", "second factor"),
            ("arrow", "comma separated target set"),
        ):
            p = gsub.add_parser(name, parents=[common])
            p.add_argument("graph", help="graph file (vertex/edge lines)")
            p.add_argument("a", help="element literal like e.f/@v")
            p.add_argument("b", help=bhelp)

    finite = family("finite", "finite inverse semigroup tables")
    if finite is not None:
        fsub = finite.add_subparsers(dest="sub", required=True)
        for name in (
            "validate",
            "predicates",
            "congfree",
            "simplifying",
            "complete",
            "dualize",
            "classify",
            "ideals",
        ):
            p = fsub.add_parser(name, parents=[common])
            p.add_argument("table", help="table file (elements/zero header)")
            if name in ("complete", "dualize"):
                p.add_argument(
                    "--dump", action="store_true", help="also print the full table"
                )

    tp = family("thompson", "Cuntz monoid units as tree pairs")
    if tp is not None:
        tsub = tp.add_subparsers(dest="sub", required=True)
        for name, two in (
            ("mul", True),
            ("eq", True),
            ("inv", False),
            ("reduce", False),
            ("fromunit", False),
            ("tounit", False),
        ):
            p = tsub.add_parser(name, parents=[common])
            p.add_argument("-n", type=int, default=2, help="alphabet size")
            p.add_argument("-r", type=int, default=1, help="number of roots")
            p.add_argument("a", help="tree pair literal, or part set for fromunit")
            if two:
                p.add_argument("b", help="second tree pair")

    st = family("selftest", "seeded cross-checks", [common])
    if st is not None:
        from .selftest import SELFTESTS

        st.add_argument("suite", choices=sorted(SELFTESTS) + ["all"])
        st.add_argument("--seed", type=int, default=0, help="random seed")

    return ap


DISPATCH = {
    "poly": cmd_poly,
    "mpc": cmd_mpc,
    "graph": cmd_graph,
    "finite": cmd_finite,
    "thompson": cmd_thompson,
    "selftest": cmd_selftest,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        records, lines = DISPATCH[args.cmd](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    if args.json:
        import json

        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def run():
    """Console entry point: main() on sys.argv, then a hard exit.  A closed
    stdout is one error: line (stderr is line buffered), not a traceback."""
    # the library's matmuls are integer ones, which never call BLAS, so OpenBLAS
    # need not start its thread pool; set here, not on import, to leave importers alone
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        rc = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        rc = 1
        try:
            print("error: %s" % exc, file=sys.stderr)
        except OSError:
            pass
    # module teardown and the final GC have no observable effect once the answer is flushed
    os._exit(rc)


if __name__ == "__main__":
    run()
