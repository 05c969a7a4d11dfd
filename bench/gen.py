"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python over JSON-ready dicts: the program under
test only ever sees the documents written from them.  Sizes follow fixed
per-workload cycles of size classes, so every seed runs the same mix of
sizes and the seed only changes the random structure (transitions,
counts, finals, the initial state, removed pairs and relabellings).
That keeps the end-to-end figures comparable from seed to seed.
"""

from __future__ import annotations

import random
from itertools import combinations

FORMAT_VERSION = "1"
MAX_FIBER = 16  # stays below the CLI's default powerset cap of 20


# ---------------------------------------------------------------------------
# span automata


def state_names(node_index: int, size: int) -> list[str]:
    # "a0".."a15": string order differs from numeric order past 10 states,
    # which the subset and expansion labels have to follow
    return [f"{chr(97 + node_index)}{j}" for j in range(size)]


def base_graph(n_nodes: int, letters: int) -> dict:
    """Nodes n0..; one edge per letter and node, into a fixed neighbour.

    Letter i leads from node j to node (j + i) mod n, so `a` is a loop.
    With several nodes each node also has an `a` edge to its successor:
    words that take one or the other print the same labels, so `lang`
    has to render their edge ids.  A fixed shape fixes each job's word
    count, which keeps a job's cost close to its size class.
    """
    nodes = [f"n{i}" for i in range(n_nodes)]
    triples = []
    for j in range(n_nodes):
        triples.extend((j, (j + i) % n_nodes, x) for i, x in enumerate("abc"[:letters]))
        if n_nodes > 1:
            triples.append((j, (j + 1) % n_nodes, "a"))
    edges = [{"id": f"e{k}", "label": x, "src": nodes[u], "dst": nodes[v]}
             for k, (u, v, x) in enumerate(triples)]
    return {"nodes": nodes, "edges": edges}


def span_doc(rng: random.Random, sizes: list[int], letters: int, density: float,
             multi_frac: float = 0.25, final_share: float = 0.3) -> dict:
    """A random span automaton over the fixed base shape.

    Each edge carries exactly round(density * pairs) random state pairs,
    a `multi_frac` share of them with count 2 or 3, and a `final_share`
    of the states are final.  Fixing the counts, not only their odds,
    keeps jobs of one size class close in cost.
    """
    if max(sizes) > MAX_FIBER:
        raise ValueError(f"fiber of {max(sizes)} states is above {MAX_FIBER}")
    base = base_graph(len(sizes), letters)
    fibers = {n: state_names(i, k) for i, (n, k) in enumerate(zip(base["nodes"], sizes))}
    transitions = {}
    for e in base["edges"]:
        pairs = [(q, r) for q in fibers[e["src"]] for r in fibers[e["dst"]]]
        chosen = sorted(rng.sample(range(len(pairs)), round(density * len(pairs))))
        multi = set(rng.sample(chosen, round(multi_frac * len(chosen))))
        transitions[e["id"]] = [
            {"from": pairs[i][0], "to": pairs[i][1], "count": rng.choice((2, 3)) if i in multi else 1}
            for i in chosen
        ]
    all_states = [q for n in base["nodes"] for q in fibers[n]]
    finals = set(rng.sample(all_states, max(1, round(final_share * len(all_states)))))
    return {
        "format_version": FORMAT_VERSION,
        "kind": "span",
        "base": base,
        "fibers": fibers,
        "transitions": transitions,
        "initial": rng.choice(fibers["n0"]),
        "finals": [q for q in all_states if q in finals],
    }


def det_span_doc(rng: random.Random, sizes: list[int], letters: int) -> dict:
    """A span automaton whose every transition is a total function (count 1)."""
    doc = span_doc(rng, sizes, letters, density=0.0)
    for e in doc["base"]["edges"]:
        targets = doc["fibers"][e["dst"]]
        doc["transitions"][e["id"]] = [
            {"from": q, "to": rng.choice(targets), "count": 1} for q in doc["fibers"][e["src"]]
        ]
    return doc


def node_of(doc: dict) -> dict[str, str]:
    return {q: n for n, qs in doc["fibers"].items() for q in qs}


def doc_shape(doc: dict) -> dict:
    """Sizes recorded per job: nodes, fiber sizes, edges and tokens."""
    return {
        "nodes": len(doc["base"]["nodes"]),
        "fibers": [len(doc["fibers"][n]) for n in doc["base"]["nodes"]],
        "edges": len(doc["base"]["edges"]),
        "tokens": sum(t.get("count", 1) for ts in doc["transitions"].values() for t in ts),
    }


# ---------------------------------------------------------------------------
# powersets, in the CLI's order and labels


def subset_label(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def state_label(node: str, members, multi: bool) -> str:
    lbl = subset_label(members)
    return f"{node}:{lbl}" if multi else lbl


def subsets_in_order(states: list[str]) -> list[frozenset]:
    """All subsets by size, then lexicographically by sorted members."""
    order = sorted(states)
    return [frozenset(c) for k in range(len(order) + 1) for c in combinations(order, k)]


def successor_table(doc: dict) -> dict[str, dict[str, frozenset]]:
    """Per edge: source state -> set of target states (counts dropped)."""
    table = {}
    for e in doc["base"]["edges"]:
        succ: dict[str, set] = {}
        for t in doc["transitions"][e["id"]]:
            succ.setdefault(t["from"], set()).add(t["to"])
        table[e["id"]] = {q: frozenset(s) for q, s in succ.items()}
    return table


def direct_image(succ: dict[str, frozenset], subset) -> frozenset:
    out = set()
    for q in subset:
        out |= succ.get(q, frozenset())
    return frozenset(out)


# ---------------------------------------------------------------------------
# workloads


def words_count(doc: dict, max_len: int) -> int:
    """Number of base-graph words of length <= max_len from the initial node."""
    per_node = {n: 0 for n in doc["base"]["nodes"]}
    per_node["n0"] = 1
    total = 1
    for _ in range(max_len):
        nxt = {n: 0 for n in per_node}
        for e in doc["base"]["edges"]:
            nxt[e["dst"]] += per_node[e["src"]]
        per_node = nxt
        total += sum(per_node.values())
    return total


def pick_max_len(doc: dict, target_words: int) -> int:
    length = 1
    while length < 30 and words_count(doc, length + 1) <= target_words:
        length += 1
    return length


# One cycle of each workload is a fixed list of size classes; every seed
# runs whole cycles of it, so only the random structure differs by seed.
# A cycle holds 20 to 22 jobs (with the two fixtures where they run),
# listed by rough cost, with a block of like-sized jobs where the median
# falls and three where p90 falls: both quantiles then land inside a
# size class, not in a gap between two.

# (fiber sizes, letters, density, word target): 255 to 3280 words
WORDS_CYCLE = (
    ([4, 4, 5], 2, 0.25, 400),
    ([4, 5], 3, 0.25, 400),
    ([4], 3, 0.35, 400),
    ([6, 5], 3, 0.2, 400),
    ([4, 4, 4], 3, 0.3, 400),
    ([5, 4], 2, 0.3, 400),
    ([6], 2, 0.25, 300),
    ([8], 2, 0.2, 300),
    ([5], 3, 0.3, 400),
    ([5], 3, 0.3, 400),
    ([5], 3, 0.3, 400),
    ([5], 3, 0.3, 400),
    ([5], 3, 0.3, 400),
    ([5, 6, 4], 3, 0.15, 1400),
    ([8], 2, 0.15, 600),
    ([4, 5], 2, 0.2, 3300),
    ([7], 3, 0.2, 1100),
    ([6], 3, 0.25, 1100),
    ([6], 3, 0.25, 1100),
    ([6], 3, 0.25, 1100),
)

# (fiber sizes, density): the largest fiber is skewed small, a few at 14-16;
# p90 falls inside the four 14s, below the one 16
POWERSET_CYCLE = (
    ([8], 0.3), ([9], 0.2), ([8, 8], 0.1), ([10], 0.1), ([10], 0.15), ([8, 9, 8], 0.25),
    ([10, 8], 0.3), ([11], 0.2), ([11], 0.2), ([11], 0.2), ([11], 0.2), ([8, 11], 0.15),
    ([12], 0.15), ([12, 8, 8], 0.1), ([13], 0.25), ([14], 0.2), ([14], 0.2), ([14], 0.2),
    ([14], 0.2), ([16], 0.2),
)


def words_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for sizes, letters, density, target in WORDS_CYCLE:
        doc = span_doc(rng, sizes, letters, density)
        max_len = pick_max_len(doc, target)
        jobs.append({"kind": "lang", "doc": doc, "max_len": max_len, "words": words_count(doc, max_len)})
    return jobs


def powerset_cycle(rng: random.Random) -> list[dict]:
    return [{"kind": "det", "doc": span_doc(rng, sizes, 2, density)} for sizes, density in POWERSET_CYCLE]


def full_powerset_doc(doc: dict, names=None) -> tuple[dict, dict]:
    """The complete powerset machine of a span document, as a det document,
    and the label of each (node, subset).

    `names(node, index, subset)` relabels the states; by default they keep
    the CLI's subset labels.
    """
    multi = len(doc["base"]["nodes"]) > 1
    succ = successor_table(doc)
    finals = set(doc["finals"])
    label = {}
    fibers = {}
    for n in doc["base"]["nodes"]:
        subsets = subsets_in_order(doc["fibers"][n])
        for i, s in enumerate(subsets):
            label[(n, s)] = names(n, i, s) if names else state_label(n, s, multi)
        fibers[n] = [label[(n, s)] for s in subsets]
    transitions = {}
    for e in doc["base"]["edges"]:
        transitions[e["id"]] = [
            {"from": label[(e["src"], s)], "to": label[(e["dst"], direct_image(succ[e["id"]], s))]}
            for s in subsets_in_order(doc["fibers"][e["src"]])
        ]
    owner = node_of(doc)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "det",
        "base": doc["base"],
        "fibers": fibers,
        "transitions": transitions,
        "initial": label[(owner[doc["initial"]], frozenset([doc["initial"]]))],
        "finals": [label[(n, s)] for n in doc["base"]["nodes"]
                   for s in subsets_in_order(doc["fibers"][n]) if s & finals],
    }, label


def membership_sim(doc: dict, names=None) -> dict:
    """Simulation document: source `doc`, target its full powerset machine,
    components relating each subset state to its members."""
    target, label = full_powerset_doc(doc, names)
    components = {n: [] for n in doc["base"]["nodes"]}
    for (n, s), lbl in label.items():
        for q in sorted(s):
            components[n].append({"from": lbl, "to": q, "count": 1})
    return {
        "format_version": FORMAT_VERSION,
        "kind": "simulation",
        "source": doc,
        "target": target,
        "strength": "lax",
        "components": components,
    }


def relabelled_sim(rng: random.Random, doc: dict) -> dict:
    """Pseudo simulation from a deterministic span automaton to a det copy of
    itself with shuffled state names, components sending each copy back."""
    rename = {}
    for i, n in enumerate(doc["base"]["nodes"]):
        fresh = [f"{chr(112 + i)}{j}" for j in range(len(doc["fibers"][n]))]
        rng.shuffle(fresh)
        rename.update(zip(doc["fibers"][n], fresh))
    target = {
        "format_version": FORMAT_VERSION,
        "kind": "det",
        "base": doc["base"],
        "fibers": {n: [rename[q] for q in qs] for n, qs in doc["fibers"].items()},
        "transitions": {
            eid: [{"from": rename[t["from"]], "to": rename[t["to"]]} for t in ts]
            for eid, ts in doc["transitions"].items()
        },
        "initial": rename[doc["initial"]],
        "finals": [rename[q] for q in doc["finals"]],
    }
    components = {
        n: [{"from": rename[q], "to": q, "count": 1} for q in doc["fibers"][n]]
        for n in doc["base"]["nodes"]
    }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "simulation",
        "source": doc,
        "target": target,
        "strength": "pseudo",
        "components": components,
    }


def cut_pair(rng: random.Random, sim: dict) -> dict:
    """Copy of a simulation with one component pair removed."""
    node = rng.choice(sorted(n for n, c in sim["components"].items() if c))
    entries = list(sim["components"][node])
    del entries[rng.randrange(len(entries))]
    return dict(sim, components=dict(sim["components"], **{node: entries}))


# (kind, fiber sizes, letters, (--max-len, --max-states) of an expansion);
# passing lax checks, whose cost the sizes fix, sit at the median and p90
CHECK_CYCLE = (
    ("factor-mdet", [9], 3, None),
    ("factor-mdet", [6, 7], 2, None),
    ("sim-pseudo", [5, 5], 3, None),
    ("mdet-expand", [4], 3, (6, 200)),
    ("factor-det-reach", [6, 5], 2, None),
    ("factor-mdet", [4], 2, None),
    ("factor-det", [5, 5], 2, None),
    ("sim-pseudo", [6, 5], 2, None),
    ("sim-lax", [6, 5], 3, None),
    ("sim-lax", [6, 5], 3, None),
    ("sim-lax", [6, 5], 3, None),
    ("sim-lax", [6, 5], 3, None),
    ("factor-det-reach", [8], 3, None),
    ("sim-lax-cut", [7], 3, None),
    ("factor-det", [7], 2, None),
    ("sim-pseudo", [8], 2, None),
    ("mdet-expand", [9], 2, (12, 1200)),
    ("mdet-expand", [8, 6], 2, (8, 2000)),
    ("sim-lax", [8], 2, None),
    ("sim-lax", [8], 2, None),
    ("sim-lax", [8], 2, None),
    ("sim-lax", [9], 2, None),
)


def check_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for kind, sizes, letters, bounds in CHECK_CYCLE:
        if kind == "factor-mdet":
            jobs.append({"kind": kind, "sim": relabelled_sim(rng, det_span_doc(rng, sizes, letters))})
            continue
        doc = span_doc(rng, sizes, letters, 0.25)
        if kind == "mdet-expand":
            jobs.append({"kind": kind, "doc": doc, "max_len": bounds[0], "max_states": bounds[1]})
        elif kind == "sim-lax-cut":
            jobs.append({"kind": kind, "sim": cut_pair(rng, membership_sim(doc))})
        elif kind.startswith("sim-"):
            jobs.append({"kind": kind, "sim": membership_sim(doc)})
        else:
            sim = membership_sim(doc, names=lambda n, i, s: f"{n}P{i}")
            jobs.append({"kind": kind, "sim": restrict_to_reachable(sim) if kind == "factor-det-reach" else sim})
    return jobs


def restrict_to_reachable(sim: dict) -> dict:
    """Membership simulation onto only the reachable part of the powerset machine."""
    target = sim["target"]
    owner = {q: n for n, qs in target["fibers"].items() for q in qs}
    step = {(eid, t["from"]): t["to"] for eid, ts in target["transitions"].items() for t in ts}
    out_edges = {}
    for e in target["base"]["edges"]:
        out_edges.setdefault(e["src"], []).append(e["id"])
    reached = {target["initial"]}
    frontier = [target["initial"]]
    while frontier:
        q = frontier.pop()
        for eid in out_edges.get(owner[q], ()):
            t = step[(eid, q)]
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    pruned = dict(
        target,
        fibers={n: [q for q in qs if q in reached] for n, qs in target["fibers"].items()},
        transitions={eid: [t for t in ts if t["from"] in reached] for eid, ts in target["transitions"].items()},
        finals=[q for q in target["finals"] if q in reached],
    )
    components = {n: [c for c in cs if c["from"] in reached] for n, cs in sim["components"].items()}
    return dict(sim, target=pruned, components=components)


CYCLES = {"words": words_cycle, "powerset": powerset_cycle, "check": check_cycle}


def generate(workload: str, seed: int, cycles: int) -> list[list[dict]]:
    """The jobs of a workload: `cycles` cycles of its size classes."""
    rng = random.Random(f"{workload}:{seed}")
    return [CYCLES[workload](rng) for _ in range(cycles)]
