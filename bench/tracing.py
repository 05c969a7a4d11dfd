"""Span tracing around the calls into each spanauto layer.

`install` replaces each listed public function, in every `spanauto.*`
namespace that holds it, by a wrapper recording one span per call:
name, start, end, parent span and job id, plus one count taken from the
return value where a layer has one.  `cli`, `automata`, `determinize`
and `simulation` bind these names with `from .x import ...`, so the
wrapper has to replace every binding, not only the defining module's.

Spans stay in flat arrays in memory and are written out once, at the
end of the traced pass; `summarize` reads them back and derives each
span's self time (its duration minus its direct children's).
"""

from __future__ import annotations

import json
import sys
import time
from array import array


def _states(d) -> int:
    return sum(len(f) for f in d.fibers.values())


# span name -> (module, wrapped functions, reported stats, count taken from
# the return value).  `calls` and `self_ms` are per span; any other stat
# names the summed count.
LAYERS = {
    "automata.enumerate_words": ("automata", ("enumerate_words",), ("words", "self_ms"), len),
    "automata.accepted": ("automata", ("accepted",), ("calls", "self_ms"), int),
    "automata.count_paths": ("automata", ("count_paths",), ("calls", "self_ms"), None),
    "spans.matrix_compose": ("spans", ("matrix_compose",), ("calls", "self_ms"), None),
    "spans.to_matrix": ("spans", ("to_matrix",), ("calls", "self_ms"), None),
    "spans.compose_spans": ("spans", ("compose_spans",), ("calls", "self_ms", "tokens_out"),
                            lambda s: len(s.apex)),
    "spans.span_morphism_search": ("spans", ("span_morphism_search",), ("self_ms",), None),
    "spans.image": ("spans", ("image",), ("self_ms",), None),
    "spans.multiset_extend": ("spans", ("multiset_extend",), ("calls", "self_ms"), None),
    "determinize.det": ("determinize", ("det",), ("self_ms", "states_built"), _states),
    "determinize.prune_reachable": ("determinize", ("prune_reachable",), ("self_ms", "states_kept"),
                                    _states),
    "determinize.mdet_expand": ("determinize", ("mdet_expand",), ("self_ms", "states"), lambda x: len(x.states)),
    "simulation.check_span_simulation": ("simulation", ("check_span_simulation",), ("calls", "self_ms"), None),
    "simulation.check_rel_simulation": ("simulation", ("check_rel_simulation",), ("self_ms",), None),
    "simulation.check_bisimulation": ("simulation", ("check_bisimulation",), ("self_ms",), None),
    "simulation.factor_det": ("simulation", ("factor_det",), ("self_ms",), None),
    "simulation.factor_mdet": ("simulation", ("factor_mdet",), ("self_ms",), None),
    "io.load": ("io", ("load_automaton", "load_simulation"), ("self_ms",), None),
    "io.serialize": ("io", ("serialize_automaton", "serialize_mdet", "serialize_expanded",
                            "serialize_factorization"), ("self_ms", "bytes"), lambda s: len(s.encode())),
    "cli.main": ("cli", ("main",), ("self_ms",), None),
}
NAMES = tuple(LAYERS)


class Recorder:
    """Flat, append-only span storage; one entry per wrapped call."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.open: list[int] = []
        self.job_id = -1

    def wrap(self, name_id: int, fn, count):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.open[-1] if self.open else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.value.append(0)
            self.open.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.open.pop()
            if count is not None:
                self.value[i] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write((json.dumps({"names": NAMES, "spans": len(self.start)}) + "\n").encode())
            for a in (self.name, self.parent, self.job, self.start, self.end, self.value):
                a.tofile(f)


def install(recorder: Recorder) -> None:
    """Wrap every listed function in each loaded spanauto module."""
    modules = [m for name, m in sys.modules.items() if name == "spanauto" or name.startswith("spanauto.")]
    for name_id, (module, functions, _, count) in enumerate(LAYERS.values()):
        home = sys.modules[f"spanauto.{module}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = recorder.wrap(name_id, original, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def load(path: str) -> dict:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        columns = {}
        for key, code in (("name", "B"), ("parent", "l"), ("job", "l"), ("start", "d"),
                          ("end", "d"), ("value", "q")):
            a = array(code)
            a.fromfile(f, n)
            columns[key] = a
    columns["names"] = header["names"]
    return columns


def summarize(path: str) -> dict:
    """Per span name: calls, self time in ms and the summed count."""
    s = load(path)
    names, parent, start, end = s["names"], s["parent"], s["start"], s["end"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    stats = {name: {"calls": 0, "self_ms": 0.0, "count": 0} for name in names}
    for i in range(n):
        st = stats[names[s["name"][i]]]
        st["calls"] += 1
        st["self_ms"] += (end[i] - start[i] - child[i]) * 1000.0
        st["count"] += s["value"][i]
    return stats


def layer_metrics(stats: dict) -> dict:
    """Every reported per-layer metric as name -> (value, unit)."""
    metrics = {}
    for span, (_, _, reported, _) in LAYERS.items():
        for stat in reported:
            if stat == "self_ms":
                metrics[f"{span}.self_ms"] = (stats[span]["self_ms"], "ms")
            else:
                metrics[f"{span}.{stat}"] = (stats[span]["calls" if stat == "calls" else "count"], "count")
    metrics["automata.accept_ratio"] = (
        _share(stats["automata.accepted"]["count"], stats["automata.enumerate_words"]["count"]), "ratio")
    metrics["determinize.reachable_ratio"] = (
        _share(stats["determinize.prune_reachable"]["count"], stats["determinize.det"]["count"]), "ratio")
    return metrics


def _share(num: int, den: int) -> float:
    """Useful outcomes over attempts; 0 when the layer made no attempt."""
    return num / den if den else 0.0
