"""spanauto: build, run and check automata whose transitions are spans.

Exit codes: 0 on success, 1 when a requested check fails, 2 on input
errors.  An input error prints one input-error: line to stderr and
nothing to stdout; a failed check ends stderr with one check-failed:
line, after any detail lines (a failing square's).
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .automata import _accepted_sweep
from .determinize import (
    ClassicalNFA,
    classical_subset_construction,
    det,
    mdet,
    mdet_expand,
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
from .simulation import STRENGTHS, check_rel_simulation, check_span_simulation, factor_det, factor_mdet


class CheckFailed(Exception):
    pass


def _fibered(a):
    """A document's automaton, with a classical NFA read over the one-node base."""
    return span_automaton_of_classical(a) if isinstance(a, ClassicalNFA) else a


def cmd_validate(args) -> int:
    # the loader refuses, as an input error, each violation ``automata.validate`` reports
    load_automaton(args.file)
    return 0


def cmd_det(args) -> int:
    a = load_automaton(args.file)
    if a.kind not in ("span", "rel"):
        raise DocumentError("kind", "det expects a span or rel document")
    sys.stdout.write(serialize_automaton(det(a, prune=args.prune)))
    return 0


def cmd_mdet(args) -> int:
    machine = mdet(_fibered(load_automaton(args.file)))
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
    words = list(_accepted_sweep(_fibered(load_automaton(args.file)), args.max_len))
    # labels are unique per (src, dst) but may repeat across pairs; words
    # whose label string is shared by another word get their edge ids shown
    shared = Counter(text for _, text, _ in words)
    lines = []
    for edges, text, n in words:
        if shared[text] > 1:
            text = f"{text}({','.join(edges)})"
        lines.append(f"{text}\t{n}\n" if args.count else text + "\n")
    sys.stdout.write("".join(lines))
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


def cmd_dot(args) -> int:
    sys.stdout.write(to_dot(load_automaton(args.file)))
    return 0


def _bounded_int(least: int):
    """An argparse ``type``: an integer of at least ``least``, so a bound is refused before any work."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when int() fails: "invalid int value: 'x'"
    return parse


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, whose usage errors raise ``ValueError``.

    ``build_parser`` keeps the subparsers by command name in ``commands``.
    """

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="spanauto", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("file")
        return p

    command("validate", cmd_validate, "check a document against the type invariants")
    p = command("det", cmd_det, "powerset determinization of a span or rel document")
    p.add_argument("--prune", action="store_true", help="keep only reachable states")
    p = command("mdet", cmd_mdet, "counting (multiset) determinization")
    p.add_argument("--expand", action="store_true", help="emit the bounded explicit machine")
    p.add_argument("--max-len", type=_bounded_int(0), default=4, metavar="L",
                   help="with --expand, explore at most L layers from the start (default: %(default)s)")
    p.add_argument("--max-states", type=_bounded_int(1), default=64, metavar="K",
                   help="with --expand, stop once more than K states appear (default: %(default)s)")
    command("classical", cmd_classical, "textbook subset construction of a classical-nfa document")
    p = command("lang", cmd_lang, "accepted words up to a length")
    p.add_argument("--max-len", type=_bounded_int(0), required=True, metavar="L", help="list words of length at most L")
    p.add_argument("--count", action="store_true", help="append the number of accepting runs")
    p = command("sim-check", cmd_sim_check, "check a simulation document for naturality")
    p.add_argument("--mode", choices=STRENGTHS, required=True)
    p = command("factor", cmd_factor, "factor a simulation through a determinization")
    p.add_argument("--target", choices=["det", "mdet"], required=True)
    p.add_argument("--max-len", type=_bounded_int(0), default=4, metavar="L",
                   help="bounds only the --target mdet expansion, to L layers (default: %(default)s); "
                        "--target det ignores it")
    command("dot", cmd_dot, "emit Graphviz text for a document")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a command's own subparser parses its arguments; anything else in first place, and leftover
        # arguments, go to the top-level parser, which words the errors as its own parse would
        parser = build_parser()
        sub = parser.commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extra = sub.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.fn(args)
    except CheckFailed as exc:
        print(f"check-failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # a DocumentError or a bad argument is a ValueError; a file that cannot be opened is an OSError
        print(f"input-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
