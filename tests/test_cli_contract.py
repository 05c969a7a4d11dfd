"""The CLI's exit contract under single mutations of documents and command lines.

Every run of ``main`` ends in one of three ways: exit 0 with nothing on
stderr; exit 2 with nothing on stdout and exactly one ``input-error:``
line on stderr; or exit 1 with one ``check-failed:`` line on stderr, the
last one.  ``CASES`` cases, each drawn from its own seed, make one
mutation of a document (a fixture, a golden document or a ``genlib``
draw) and run it through a command that reads the original's kind, or
make one mutation of a valid command line.  Every case starts bounded
work and must finish within ``CASE_SECONDS``.  A failure names the
case's seed and shows its command line and mutated document, so
``run_case(seed, tmp_path)`` replays it.
"""

import contextlib
import io
import json
import random
import time

from conftest import FIXTURES_DIR, GOLDEN_DIR
from genlib import full_powerset_bisim, random_closure_simulation, random_live_span_automaton
from spanauto.cli import main
from spanauto.determinize import det, rel_of
from spanauto.io import serialize_automaton, serialize_simulation
from spanauto.simulation import canonical_det_simulation, identity_simulation

CASES = 1000
CASE_SECONDS = 5.0


def _documents() -> list[str]:
    """The texts the document cases mutate: fixtures, goldens of every output kind, and genlib draws."""
    paths = [FIXTURES_DIR / f"{name}.json" for name in
             ("two_state", "two_phase", "two_state_nfa", "sim_identity_det", "sim_canonical_mdet")]
    paths += [GOLDEN_DIR / f"{name}.json" for name in
              ("det_two_state", "mdet_two_phase", "mdet_expand_two_state", "factor_det_identity")]
    texts = [p.read_text() for p in paths]
    for seed in range(4):
        a = random_live_span_automaton(random.Random(seed), max_nodes=2, max_states=3)
        texts += [serialize_automaton(x) for x in (a, rel_of(a), det(a, prune=True))]
        texts += [serialize_simulation(s) for s in (identity_simulation(a, "pseudo"), canonical_det_simulation(a))]
    # factor documents onto closures of subsets, over at least three source states:
    # the first draw whose mate is a bisimulation, and the first whose is not
    factors = {}
    seed = 0
    while len(factors) < 2:
        alpha = random_closure_simulation(random.Random(seed), max_nodes=2, max_states=3)
        if sum(map(len, alpha.source.fibers.values())) >= 3:
            factors.setdefault(full_powerset_bisim(alpha)[2], alpha)
        seed += 1
    texts += [serialize_simulation(factors[True]), serialize_simulation(factors[False])]
    return texts


DOCUMENTS = _documents()

# the commands that read each document kind, "{}" standing for the document's path;
# no command reads the output-only kinds, so theirs are the automaton and simulation readers
SPAN_COMMANDS = [
    ["validate", "{}"], ["det", "{}"], ["det", "{}", "--prune"], ["mdet", "{}"],
    ["mdet", "{}", "--expand", "--max-len", "3", "--max-states", "16"],
    ["lang", "{}", "--max-len", "3", "--count"], ["dot", "{}"],
]
SIMULATION_COMMANDS = [
    ["sim-check", "{}", "--mode", "strict"], ["sim-check", "{}", "--mode", "pseudo"],
    ["sim-check", "{}", "--mode", "lax"], ["factor", "{}", "--target", "det"],
    ["factor", "{}", "--target", "mdet", "--max-len", "3"],
]
COMMANDS = {
    "span": SPAN_COMMANDS,
    "rel": SPAN_COMMANDS,
    "det": [argv for argv in SPAN_COMMANDS if argv[0] != "det"],
    "classical-nfa": [["validate", "{}"], ["classical", "{}"], ["mdet", "{}"], ["lang", "{}", "--max-len", "3"]],
    "mdet": [["validate", "{}"], ["dot", "{}"]],
    "mdet-expanded": [["validate", "{}"], ["mdet", "{}"]],
    "simulation": SIMULATION_COMMANDS,
    "factorization": [["sim-check", "{}", "--mode", "lax"], ["factor", "{}", "--target", "det"]],
}
ODD_VALUES = [None, True, -1, 0, 1.5, 10**6, 2**64, "", "zz", [], {}]


def _slots(node, out):
    """Every (container, key) pair of a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def mutate_document(rng: random.Random, doc):
    """One mutation: replace a value, change a count, drop a key or an item, duplicate an item, or add a key.

    The schema-keeping mutations shuffle an entry list (a list of objects
    with ``from`` and ``to``), or point one entry's ``from`` or ``to`` at
    a state another entry of the same list names there; a document with no
    entry list gets a key added instead.
    """
    slots = _slots(doc, [])
    container, key = rng.choice(slots)
    op = rng.choice(("odd", "reuse", "count", "drop", "duplicate", "add", "shuffle", "repoint", "repoint"))
    counts = [(c, k) for c, k in slots if type(c[k]) is int]
    entry_lists = [c[k] for c, k in slots if isinstance(c[k], list) and c[k]
                   and all(isinstance(x, dict) and "from" in x and "to" in x for x in c[k])]
    if op in ("shuffle", "repoint") and entry_lists:
        entries = rng.choice(entry_lists)
        if op == "shuffle":
            rng.shuffle(entries)
        else:
            end = rng.choice(("from", "to"))
            rng.choice(entries)[end] = rng.choice(entries)[end]
    elif op == "count" and counts:
        container, key = rng.choice(counts)
        container[key] = rng.randint(1, 3)
    elif op in ("odd", "count"):
        container[key] = rng.choice(ODD_VALUES)
    elif op == "reuse":  # another key or string of the document
        container[key] = rng.choice([x for c, k in slots for x in (k, c[k]) if isinstance(x, str)])
    elif op == "drop":
        del container[key]
    elif op == "duplicate":
        container, key = rng.choice([(c, k) for c, k in slots if isinstance(c, list)])
        container.insert(key, container[key])
    else:
        rng.choice([c for c, _ in slots if isinstance(c, dict)])["zz"] = rng.choice(ODD_VALUES)
    return doc


def mutate_argv(rng: random.Random, path: str) -> list[str]:
    """One mutation of a valid command line: a missing argument, an unknown flag or a bad bound."""
    argv = [a.replace("{}", path) for a in rng.choice(SPAN_COMMANDS)]
    op = rng.choice(("drop", "unknown", "bound", "command", "file"))
    if op == "drop":
        del argv[rng.randrange(len(argv))]
    elif op == "unknown":
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--zz", "-z", "--max-len=1", "--prune")))
    elif op == "bound":
        flag = rng.choice(("--max-len", "--max-states"))
        argv = rng.choice([["lang", path, "--count"], ["mdet", path, "--expand"], ["factor", path, "--target", "mdet"]])
        argv += [flag, rng.choice(("-1", "0", "x"))]
    elif op == "command":
        argv[0] = rng.choice(("zz", "", "-v", "Det"))
    else:
        argv[1 if len(argv) > 1 else 0] = path + ".missing"
    return argv


def run_case(seed: int, tmp_path):
    """Draw and run case ``seed``: its argv, the document text it wrote, exit code, stdout, stderr, seconds."""
    rng = random.Random(seed)
    path = tmp_path / "doc.json"
    text = rng.choice(DOCUMENTS)
    if rng.random() < 0.8:
        doc = json.loads(text)
        argv = [a.replace("{}", str(path)) for a in rng.choice(COMMANDS[doc["kind"]])]
        text = json.dumps(mutate_document(rng, doc))
    else:
        argv = mutate_argv(rng, str(path))
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback or an exit breaks the contract too
            code = f"raised {exc!r}"
    return argv, text, code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def contract_breach(code, out: str, err: str, seconds: float):
    """What the outcome breaks of the exit contract, or None."""
    lines = err.splitlines()
    if seconds > CASE_SECONDS:
        return f"took {seconds:.1f} s, over {CASE_SECONDS} s"
    if code == 0:
        return None if err == "" else "exit 0 wrote to stderr"
    if code == 2:
        ok = out == "" and len(lines) == 1 and err.endswith("\n") and lines[0].startswith("input-error: ")
        return None if ok else "exit 2 without empty stdout and exactly one input-error line"
    if code == 1:
        failed = [line.startswith("check-failed: ") for line in lines]
        ok = err.endswith("\n") and failed.count(True) == 1 and failed[-1]
        return None if ok else "exit 1 without check-failed: as the only such line and the last"
    return f"exit {code}"


def test_every_case_keeps_the_exit_contract(tmp_path):
    failures = []
    codes = {0: 0, 1: 0, 2: 0}
    for seed in range(CASES):
        argv, text, code, out, err, seconds = run_case(seed, tmp_path)
        breach = contract_breach(code, out, err, seconds)
        if breach:
            failures.append(f"seed {seed}: {breach}\nargv: {argv}\nstderr: {err!r}\nmutated document:\n{text}")
        elif code in codes:
            codes[code] += 1
    assert not failures, f"{len(failures)} of {CASES} cases break the exit contract; the first:\n" + failures[0]
    # every branch of the contract is checked on more than a handful of cases
    assert min(codes.values()) >= 10, codes
