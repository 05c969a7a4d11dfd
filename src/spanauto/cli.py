"""Command-line surface.

Exit codes: 0 on success, 1 when a requested check fails, 2 on input
errors.  Failures print a single line to stderr starting with either
``check-failed:`` or ``input-error:``.
"""

from __future__ import annotations

import argparse
import sys

from .automata import SpanAutomaton, RelAutomaton, DetAutomaton, validate, accepted_counts
from .determinize import (
    ClassicalNFA,
    classical_subset_construction,
    det,
    det_span,
    mdet,
    mdet_expand,
    prune_reachable,
    span_automaton_of_classical,
)
from .io import (
    DocumentError,
    load_automaton,
    load_simulation,
    serialize_automaton,
    serialize_expanded,
    serialize_factorization,
    serialize_mdet,
    to_dot,
)
from .laws import run_all_laws
from .simulation import check_rel_simulation, check_span_simulation, factor_det, factor_mdet
from .automata import span_automaton_of_rel, rel_automaton_of_det


class CheckFailed(Exception):
    pass


def _as_span_automaton(a):
    if isinstance(a, SpanAutomaton):
        return a
    if isinstance(a, RelAutomaton):
        return span_automaton_of_rel(a)
    if isinstance(a, DetAutomaton):
        return span_automaton_of_rel(rel_automaton_of_det(a))
    if isinstance(a, ClassicalNFA):
        return span_automaton_of_classical(a)
    raise DocumentError("kind", f"unsupported automaton type {type(a).__name__}")


def cmd_validate(args) -> int:
    a = load_automaton(args.file)
    if isinstance(a, ClassicalNFA):
        return 0
    problems = validate(a)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        raise CheckFailed(f"{len(problems)} violation(s)")
    return 0


def cmd_det(args) -> int:
    a = load_automaton(args.file)
    if isinstance(a, SpanAutomaton):
        d = det_span(a, args.powerset_cap)
    elif isinstance(a, RelAutomaton):
        d = det(a, args.powerset_cap)
    else:
        raise DocumentError("kind", "det expects a span or rel document")
    if args.prune:
        d = prune_reachable(d)
    sys.stdout.write(serialize_automaton(d))
    return 0


def cmd_mdet(args) -> int:
    a = _as_span_automaton(load_automaton(args.file))
    machine = mdet(a)
    if args.expand:
        expansion = mdet_expand(machine, args.max_states, args.max_len)
        sys.stdout.write(serialize_expanded(expansion))
    else:
        sys.stdout.write(serialize_mdet(machine))
    return 0


def cmd_classical(args) -> int:
    a = load_automaton(args.file)
    if not isinstance(a, ClassicalNFA):
        raise DocumentError("kind", "classical expects a classical-nfa document")
    sys.stdout.write(serialize_automaton(classical_subset_construction(a)))
    return 0


def cmd_lang(args) -> int:
    a = load_automaton(args.file)
    if isinstance(a, ClassicalNFA):
        a = span_automaton_of_classical(a)
    labels = {e.id: e.label for e in a.base.edges}
    # labels are unique per (src, dst) but may repeat across pairs; words
    # whose label string is shared by another word get their edge ids shown
    words = [("".join(labels[e] for e in w.edges), w, n) for w, n in accepted_counts(a, args.max_len)]
    shared: dict[str, int] = {}
    for text, _, _ in words:
        shared[text] = shared.get(text, 0) + 1
    for text, w, n in words:
        if shared[text] > 1:
            text = f"{text}({','.join(w.edges)})"
        print(f"{text}\t{n}" if args.count else text)
    return 0


def cmd_sim_check(args) -> int:
    sim = load_simulation(args.file)
    if args.mode == "strict":
        result = check_rel_simulation(sim)
    else:
        result = check_span_simulation(sim, args.mode)
    if not result.ok:
        print(result.detail, file=sys.stderr)
        raise CheckFailed(f"naturality fails at edge {result.failed_edge!r}")
    return 0


def cmd_factor(args) -> int:
    sim = load_simulation(args.file)
    if args.target == "det":
        result = factor_det(sim)
    else:
        result = factor_mdet(sim, max_len=args.max_len)
    sys.stdout.write(serialize_factorization(result))
    if not (result.composite_ok and result.bisim_ok):
        raise CheckFailed("factorization does not satisfy the universal property")
    return 0


def cmd_laws(args) -> int:
    failures = run_all_laws(seed=args.seed, cases=args.cases)
    for f in failures:
        print(f, file=sys.stderr)
    if failures:
        raise CheckFailed(f"{len(failures)} law suite(s) failed")
    print(f"all {args.cases} cases passed for every law suite (seed {args.seed})")
    return 0


def cmd_dot(args) -> int:
    sys.stdout.write(to_dot(load_automaton(args.file)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spanauto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document against the type invariants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("det", help="powerset determinization of a span or rel document")
    p.add_argument("file")
    p.add_argument("--prune", action="store_true", help="keep only reachable states")
    p.add_argument("--powerset-cap", type=int, default=20, metavar="N")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("mdet", help="counting (multiset) determinization")
    p.add_argument("file")
    p.add_argument("--expand", action="store_true", help="emit the bounded explicit machine")
    p.add_argument("--max-len", type=int, default=4, metavar="L")
    p.add_argument("--max-states", type=int, default=64, metavar="K")
    p.set_defaults(fn=cmd_mdet)

    p = sub.add_parser("classical", help="textbook subset construction of a classical-nfa document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classical)

    p = sub.add_parser("lang", help="accepted words up to a length")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True, metavar="L")
    p.add_argument("--count", action="store_true", help="append the number of accepting runs")
    p.set_defaults(fn=cmd_lang)

    p = sub.add_parser("sim-check", help="check a simulation document for naturality")
    p.add_argument("file")
    p.add_argument("--mode", choices=["strict", "pseudo", "lax"], required=True)
    p.set_defaults(fn=cmd_sim_check)

    p = sub.add_parser("factor", help="factor a simulation through a determinization")
    p.add_argument("file")
    p.add_argument("--target", choices=["det", "mdet"], required=True)
    p.add_argument("--max-len", type=int, default=4, metavar="L")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("laws", help="run the randomized law suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("dot", help="emit Graphviz text for a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailed as exc:
        print(f"check-failed: {exc}", file=sys.stderr)
        return 1
    except (DocumentError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
