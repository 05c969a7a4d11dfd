"""The benchmark's tracer names only functions that exist in the library."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "bench" / "tracing.py"

# A traced pass in a fresh interpreter: install the tracer over the loaded
# library, run the CLI over the given commands, then call the layers the
# CLI no longer reaches through their wrapped names.  Prints each
# command's exit code and stdout, and each layer's calls and summed count.
TRACED_PASS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import spanauto.cli
from spanauto import automata, determinize, spans
recorder = tracing.Recorder()
tracing.install(recorder)
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs.append((argv, spanauto.cli.main(argv), out.getvalue()))
a = spanauto.io.load_automaton(sys.argv[3])
automata.enumerate_words(a.base, a.initial_node, 2)
automata.accepted(a, automata.Word(a.initial_node))
determinize.prune_reachable(determinize.det(a))
s = a.transitions[a.base.edges[0].id]
spans.span_morphism_search(spans.compose_spans(s, s), spans.compose_spans(s, s))
layers = {name: [0, 0] for name in tracing.NAMES}
for i, value in zip(recorder.name, recorder.value):
    layers[tracing.NAMES[i]][0] += 1
    layers[tracing.NAMES[i]][1] += value
print(json.dumps({"runs": runs, "layers": layers}))
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
    assert tracing.LAYERS
    for span, (module, functions, _, _) in tracing.LAYERS.items():
        home = importlib.import_module(f"spanauto.{module}")
        for name in functions:
            assert callable(getattr(home, name, None)), f"{span}: spanauto.{module}.{name} is missing"


def test_every_count_runs_on_real_return_values(fixtures_dir, tmp_path):
    from spanauto.determinize import mdet, mdet_expand
    from spanauto.io import load_automaton, serialize_simulation
    from spanauto.simulation import Simulation, canonical_det_simulation, multiplicity_span

    a = load_automaton(fixtures_dir / "two_state.json")
    exp = mdet_expand(mdet(a), 64, 8)
    components = {n: multiplicity_span(exp, n, a.fibers[n]) for n in a.base.nodes}
    pseudo, lax = tmp_path / "pseudo.json", tmp_path / "lax.json"
    pseudo.write_text(serialize_simulation(Simulation(a, exp.as_det_automaton(), components, "pseudo")))
    lax.write_text(serialize_simulation(canonical_det_simulation(a)))
    fixtures = [str(fixtures_dir / f"{name}.json") for name in ("two_state", "two_phase", "two_state_nfa")]
    commands = []
    for path in fixtures:
        commands += [
            ["validate", path], ["mdet", path], ["mdet", path, "--expand"],
            ["lang", path, "--max-len", "3", "--count"], ["dot", path],
        ]
    for path in fixtures[:2]:
        commands += [["det", path], ["det", path, "--prune"]]
    commands += [
        ["sim-check", str(pseudo), "--mode", "pseudo"], ["sim-check", str(lax), "--mode", "lax"],
        ["factor", str(pseudo), "--target", "mdet"], ["factor", str(lax), "--target", "det"],
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(TRACING), json.dumps(commands), fixtures[0]],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for _, code, _ in report["runs"]] == [0] * len(commands)

    layers = report["layers"]
    for name, (_, _, _, count) in load_tracing().LAYERS.items():
        if count is not None:
            assert layers[name][0] > 0, f"{name}: its count never ran"
    # factor --target mdet expands once more, seeded with exp's own closed states
    expanded = [out for argv, _, out in report["runs"] if argv[0] == "mdet" and "--expand" in argv]
    states = sum(len(json.loads(out)["states"]) for out in expanded) + len(exp.states)
    assert layers["determinize.mdet_expand"] == [len(expanded) + 1, states]
    written = [out for argv, _, out in report["runs"] if argv[0] in ("det", "mdet", "factor")]
    assert layers["io.serialize"] == [len(written), sum(len(o.encode()) for o in written)]
