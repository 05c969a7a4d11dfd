"""Reference answers for every benchmark job, computed without spanauto.

Each function takes the generated job and returns what the CLI must
print and which exit code it must return.  The algorithms are written
independently of the library: dict vectors and dict matrices, a
prefix-shared sweep for word counts, a frozenset BFS for reachable
subsets and explicit naturality squares for the simulation checks.
"""

from __future__ import annotations

import json

from gen import FORMAT_VERSION, direct_image, node_of, state_label, subsets_in_order, successor_table

CHECK_FAILED_SIM = "check-failed: naturality fails at edge {!r}"
CHECK_FAILED_FACTOR = "check-failed: factorization does not satisfy the universal property"


class Expected:
    """What one job must produce: its exit code, stdout and stderr's last line.

    `stdout` is compared as text; `doc` (when set) is compared after
    parsing stdout as JSON, so every field and list order must match.
    """

    def __init__(self, code: int, stdout: str | None = None, doc: dict | None = None,
                 err_line: str | None = None):
        self.code = code
        self.stdout = stdout
        self.doc = doc
        self.err_line = err_line

    def problem(self, code, out: str, err: str) -> str | None:
        """None when the output matches, else a one-line reason."""
        if code != self.code:
            return f"exit code {code!r}, expected {self.code}"
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        if self.err_line is None and err:
            return f"unexpected stderr {last[:120]!r}"
        if self.err_line is not None and last != self.err_line:
            return f"stderr ends {last[:120]!r}, expected {self.err_line!r}"
        if self.stdout is not None and out != self.stdout:
            return first_difference(out, self.stdout)
        if self.doc is not None:
            try:
                got = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON: {exc}"
            if got != self.doc:
                keys = sorted(k for k in set(got) | set(self.doc) if got.get(k) != self.doc.get(k))
                return f"document differs in {keys}"
        return None


def first_difference(got: str, want: str) -> str:
    g, w = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(g, w)):
        if a != b:
            return f"stdout line {i + 1} is {a[:80]!r}, expected {b[:80]!r}"
    return f"stdout has {len(g)} lines, expected {len(w)}"


# ---------------------------------------------------------------------------
# dict matrices: {row: {col: count}}, zero entries absent


def rows_of(entries) -> dict:
    m: dict = {}
    for t in entries:
        row = m.setdefault(t["from"], {})
        row[t["to"]] = row.get(t["to"], 0) + t.get("count", 1)
    return m


def mul(a: dict, b: dict) -> dict:
    out = {}
    for x, row in a.items():
        acc: dict = {}
        for y, u in row.items():
            for z, v in b.get(y, {}).items():
                acc[z] = acc.get(z, 0) + u * v
        if acc:
            out[x] = acc
    return out


def support(m: dict) -> set:
    return {(x, y) for x, row in m.items() for y in row}


def restrict(m: dict, rows) -> dict:
    return m if rows is None else {x: r for x, r in m.items() if x in rows}


def transposed(m: dict) -> dict:
    out: dict = {}
    for x, row in m.items():
        for y, c in row.items():
            out.setdefault(y, {})[x] = c
    return out


def transition_matrices(doc: dict) -> dict:
    return {eid: rows_of(ts) for eid, ts in doc["transitions"].items()}


def failing_edge(edges, comp, src_tr, tgt_tr, mode: str, rows=None):
    """First base edge whose naturality square fails, or None.

    The square at e: u -> v compares comp[u] ; src_tr[e] with
    tgt_tr[e] ; comp[v] as matrices from target states to source
    states.  `lax` needs the support of the first inside the second,
    `pseudo` equal matrices, `strict` equal supports.
    """
    for e in edges:
        keep = None if rows is None else rows[e["id"]]
        lhs = mul(restrict(comp[e["src"]], keep), src_tr[e["id"]])
        rhs = mul(restrict(tgt_tr[e["id"]], keep), comp[e["dst"]])
        if mode == "lax":
            ok = support(lhs) <= support(rhs)
        elif mode == "pseudo":
            ok = lhs == rhs
        else:
            ok = support(lhs) == support(rhs)
        if not ok:
            return e["id"]
    return None


# ---------------------------------------------------------------------------
# words: lang FILE --max-len L --count


def lang_count(doc: dict, max_len: int) -> str:
    """Accepted words with run counts, one prefix-shared sweep over the word tree.

    Each word's count vector extends its prefix's by one edge, so the
    work per word is one sparse vector-matrix step.
    """
    edges = doc["base"]["edges"]
    label = {e["id"]: e["label"] for e in edges}
    out_edges = {n: sorted((e for e in edges if e["src"] == n), key=lambda e: e["id"])
                 for n in doc["base"]["nodes"]}
    trans = transition_matrices(doc)
    finals = set(doc["finals"])
    start = node_of(doc)[doc["initial"]]
    accepted = []
    layer = [((), start, {doc["initial"]: 1})]
    for depth in range(max_len + 1):
        nxt = []
        for word, node, vec in layer:
            count = sum(c for q, c in vec.items() if q in finals)
            if count:
                accepted.append((word, count))
            if depth == max_len:
                continue
            for e in out_edges[node]:
                m = trans[e["id"]]
                step: dict = {}
                for q, c in vec.items():
                    for r, k in m.get(q, {}).items():
                        step[r] = step.get(r, 0) + c * k
                nxt.append((word + (e["id"],), e["dst"], step))
        layer = nxt
    texts = ["".join(label[eid] for eid in word) for word, _ in accepted]
    seen: dict = {}
    for text in texts:
        seen[text] = seen.get(text, 0) + 1
    lines = []
    for (word, count), text in zip(accepted, texts):
        if seen[text] > 1:
            text = f"{text}({','.join(word)})"
        lines.append(f"{text}\t{count}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# powerset: det FILE --prune


def det_pruned(doc: dict) -> dict:
    """The reachable part of the powerset machine, by BFS over frozensets."""
    nodes = doc["base"]["nodes"]
    multi = len(nodes) > 1
    succ = successor_table(doc)
    out_edges = {n: [e for e in doc["base"]["edges"] if e["src"] == n] for n in nodes}
    start = (node_of(doc)[doc["initial"]], frozenset([doc["initial"]]))
    step = {}
    reached = {start}
    frontier = [start]
    while frontier:
        node, s = frontier.pop()
        for e in out_edges[node]:
            t = (e["dst"], direct_image(succ[e["id"]], s))
            step[(e["id"], s)] = t
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    # fiber order is the full powerset's order: size, then sorted members
    order = {n: sorted((s for m, s in reached if m == n), key=lambda s: (len(s), sorted(s))) for n in nodes}
    lbl = lambda n, s: state_label(n, s, multi)  # noqa: E731
    finals = set(doc["finals"])
    return {
        "format_version": FORMAT_VERSION,
        "kind": "det",
        "base": doc["base"],
        "fibers": {n: [lbl(n, s) for s in order[n]] for n in nodes},
        "transitions": {
            e["id"]: [{"from": lbl(e["src"], s), "to": lbl(*step[(e["id"], s)])} for s in order[e["src"]]]
            for e in doc["base"]["edges"]
        },
        "initial": lbl(*start),
        "finals": [lbl(n, s) for n in nodes for s in order[n] if s & finals],
    }


# ---------------------------------------------------------------------------
# check: mdet --expand


def vector_label(node: str, vec: tuple, multi: bool) -> str:
    lbl = "(" + ",".join(str(c) for c in vec) + ")"
    return f"{node}:{lbl}" if multi else lbl


def expand(doc: dict, max_states: int, max_len: int, seeds=None) -> dict:
    """Breadth-first multiset states of the counting machine, within bounds.

    Visits the frontier in label order and out-edges in base order, and
    stops adding states once `max_states` exist; that is the documented
    order the CLI's expansion follows.
    """
    nodes = doc["base"]["nodes"]
    multi = len(nodes) > 1
    fibers = doc["fibers"]
    trans = transition_matrices(doc)
    finals = set(doc["finals"])
    out_edges = {n: [e for e in doc["base"]["edges"] if e["src"] == n] for n in nodes}
    states: dict = {}  # label -> (node, vector)
    per_node: dict = {n: [] for n in nodes}
    accept: dict = {}

    def discover(node, vec):
        lbl = vector_label(node, vec, multi)
        if lbl not in states:
            states[lbl] = (node, vec)
            per_node[node].append(lbl)
            accept[lbl] = sum(c for q, c in zip(fibers[node], vec) if q in finals)
        return lbl

    start = node_of(doc)[doc["initial"]]
    init = discover(start, tuple(int(q == doc["initial"]) for q in fibers[start]))
    frontier = [init]
    for node, vecs in (seeds or {}).items():
        for vec in vecs:
            lbl = discover(node, vec)
            if lbl not in frontier:
                frontier.append(lbl)
    tables: dict = {e["id"]: {} for e in doc["base"]["edges"]}
    truncated = False
    depth = 0
    while frontier and depth < max_len:
        nxt = []
        for lbl in sorted(frontier):
            node, vec = states[lbl]
            for e in out_edges[node]:
                m = trans[e["id"]]
                acc: dict = {}
                for q, c in zip(fibers[node], vec):
                    if c:
                        for r, k in m.get(q, {}).items():
                            acc[r] = acc.get(r, 0) + c * k
                target = tuple(acc.get(r, 0) for r in fibers[e["dst"]])
                known = vector_label(e["dst"], target, multi) in states
                if not known and len(states) >= max_states:
                    truncated = True
                    continue
                tables[e["id"]][lbl] = discover(e["dst"], target)
                if not known:
                    nxt.append(tables[e["id"]][lbl])
        frontier = nxt
        depth += 1
    if any(out_edges[states[lbl][0]] for lbl in frontier):
        truncated = True
    return {"states": states, "per_node": per_node, "accept": accept, "tables": tables,
            "initial": init, "truncated": truncated}


def expanded_doc(doc: dict, max_states: int, max_len: int) -> dict:
    x = expand(doc, max_states, max_len)
    nodes = doc["base"]["nodes"]
    position = {lbl: i for n in nodes for i, lbl in enumerate(x["per_node"][n])}
    return {
        "format_version": FORMAT_VERSION,
        "kind": "mdet-expanded",
        "base": doc["base"],
        "states": [{"label": lbl, "node": n, "counts": list(x["states"][lbl][1])}
                   for n in nodes for lbl in x["per_node"][n]],
        "transitions": {
            eid: [{"from": a, "to": b} for a, b in sorted(table.items(), key=lambda p: position[p[0]])]
            for eid, table in x["tables"].items()
        },
        "initial": x["initial"],
        "finals": sorted(lbl for lbl, c in x["accept"].items() if c > 0),
        "truncated": x["truncated"],
    }


# ---------------------------------------------------------------------------
# check: sim-check and factor


def sim_parts(sim: dict):
    src, tgt = sim["source"], sim["target"]
    comp = {n: rows_of(entries) for n, entries in sim["components"].items()}
    for n in src["base"]["nodes"]:
        comp.setdefault(n, {})
    return src, tgt, comp, transition_matrices(src), transition_matrices(tgt)


def sim_check(sim: dict, mode: str) -> Expected:
    src, _, comp, src_tr, tgt_tr = sim_parts(sim)
    edge = failing_edge(src["base"]["edges"], comp, src_tr, tgt_tr, mode)
    if edge is None:
        return Expected(0, stdout="")
    return Expected(1, stdout="", err_line=CHECK_FAILED_SIM.format(edge))


def require_valid(sim: dict, mode: str) -> None:
    src, _, comp, src_tr, tgt_tr = sim_parts(sim)
    for m in (mode, "strict"):
        if failing_edge(src["base"]["edges"], comp, src_tr, tgt_tr, m) is not None:
            raise RuntimeError(f"generated simulation fails its own {m} check")


def bisimilar(edges, comp, src_tr, tgt_tr, mode: str, rows_back=None) -> bool:
    """Whether a simulation and its converse both pass their squares.

    `rows_back` restricts the converse's squares to the target states with
    recorded transitions, as the library does when the converse's target
    is a bounded expansion.
    """
    if failing_edge(edges, comp, src_tr, tgt_tr, mode) is not None:
        return False
    converse = {n: transposed(c) for n, c in comp.items()}
    return failing_edge(edges, converse, tgt_tr, src_tr, mode, rows_back) is None


def factor_result(mode_strength: str, mate: dict, composite_ok: bool, bisim_ok: bool,
                  unique_ok, counts: bool) -> Expected:
    components = {}
    for n, m in mate.items():
        pairs = sorted((x, y, c) for x, row in m.items() for y, c in row.items())
        components[n] = [{"from": x, "to": y, "count": c} if counts else {"from": x, "to": y}
                         for x, y, c in pairs]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "factorization",
        "composite_ok": composite_ok,
        "bisim_ok": bisim_ok,
        "unique_ok": unique_ok,
        "mate_strength": mode_strength,
        "mate_components": components,
    }
    ok = composite_ok and bisim_ok
    return Expected(0 if ok else 1, doc=doc, err_line=None if ok else CHECK_FAILED_FACTOR)


def factor_det(sim: dict) -> Expected:
    """Mate x -> {members of x}, checked against the full powerset machine."""
    require_valid(sim, sim["strength"])
    src, tgt, comp, _, tgt_tr = sim_parts(sim)
    nodes = src["base"]["nodes"]
    edges = src["base"]["edges"]
    multi = len(nodes) > 1
    power = _full_powerset(src)
    mate = {n: {x: {state_label(n, comp[n].get(x, {}), multi): 1} for x in tgt["fibers"][n]} for n in nodes}
    # composite with membership: x -> S(x) -> members of S(x)
    composite_ok = all(
        {(x, q) for x, row in mate[n].items() for s in row for q in power["members"][s]} == support(comp[n])
        for n in nodes
    )
    bisim_ok = bisimilar(edges, mate, power["trans"], tgt_tr, "strict")
    return factor_result("strict", mate, composite_ok, bisim_ok, None, counts=False)


def _full_powerset(doc: dict) -> dict:
    """Members and transition matrix of every state of the powerset machine."""
    multi = len(doc["base"]["nodes"]) > 1
    succ = successor_table(doc)
    members = {state_label(n, s, multi): s
               for n in doc["base"]["nodes"] for s in subsets_in_order(doc["fibers"][n])}
    trans = {
        e["id"]: {state_label(e["src"], s, multi): {state_label(e["dst"], direct_image(succ[e["id"]], s), multi): 1}
                  for s in subsets_in_order(doc["fibers"][e["src"]])}
        for e in doc["base"]["edges"]
    }
    return {"members": members, "trans": trans}


FACTOR_MDET_MAX_LEN = 4  # the CLI's default --max-len
FACTOR_MDET_MAX_STATES = 4096  # factor_mdet's default, which the CLI keeps
UNIQUE_SEARCH_LIMIT = 4096  # candidate mates above which uniqueness is not searched


def factor_mdet(sim: dict) -> Expected:
    """Mate x -> (count row of x), checked on an expansion seeded with the mate."""
    require_valid(sim, "pseudo")
    src, tgt, comp, _, tgt_tr = sim_parts(sim)
    nodes = src["base"]["nodes"]
    edges = src["base"]["edges"]
    multi = len(nodes) > 1
    rows = {n: {x: tuple(comp[n].get(x, {}).get(q, 0) for q in src["fibers"][n]) for x in tgt["fibers"][n]}
            for n in nodes}
    x = expand(src, FACTOR_MDET_MAX_STATES, FACTOR_MDET_MAX_LEN,
               seeds={n: list(rows[n].values()) for n in nodes})
    mate = {n: {g: {vector_label(n, v, multi): 1} for g, v in rows[n].items()} for n in nodes}
    # composite with the multiplicity span: x -> state -> its counts
    composite_ok = all(
        {g: {q: c for q, c in zip(src["fibers"][n], v) if c} for g, v in rows[n].items() if any(v)}
        == {g: r for g, r in comp[n].items() if r}
        for n in nodes
    )
    exp_tr = {eid: {a: {b: 1} for a, b in table.items()} for eid, table in x["tables"].items()}
    recorded = {eid: set(table) for eid, table in x["tables"].items()}
    bisim_ok = bisimilar(edges, mate, exp_tr, tgt_tr, "pseudo", rows_back=recorded)
    functions = 1
    for n in nodes:
        functions *= max(1, len(x["per_node"][n])) ** len(tgt["fibers"][n])
    # Distinct expansion states have distinct count vectors, so the mate is
    # the only candidate whose composite matches; uniqueness then reduces to
    # whether that candidate is a bisimulation.
    unique_ok = bisim_ok if functions <= UNIQUE_SEARCH_LIMIT else None
    return factor_result("pseudo", mate, composite_ok, bisim_ok, unique_ok, counts=True)


# ---------------------------------------------------------------------------


def expected(job: dict) -> Expected:
    kind = job["kind"]
    if kind == "golden":
        return Expected(0, stdout=job["golden"])
    if kind == "lang":
        return Expected(0, stdout=lang_count(job["doc"], job["max_len"]))
    if kind == "det":
        return Expected(0, doc=det_pruned(job["doc"]))
    if kind == "mdet-expand":
        return Expected(0, doc=expanded_doc(job["doc"], job["max_states"], job["max_len"]))
    if kind in ("sim-lax", "sim-lax-cut"):
        return sim_check(job["sim"], "lax")
    if kind == "sim-pseudo":
        return sim_check(job["sim"], "pseudo")
    if kind in ("factor-det", "factor-det-reach"):
        return factor_det(job["sim"])
    if kind == "factor-mdet":
        return factor_mdet(job["sim"])
    raise ValueError(f"unknown job kind {kind!r}")
