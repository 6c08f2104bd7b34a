"""The benchmark's names still exist in fbsim.

``bench/spans.py`` wraps fbsim functions by name, and ``Tracer.wrap`` skips
a name the package no longer has, so its per-layer metrics would read 0
without a word; ``bench/cases.py`` and ``bench/run.py`` read
``fbsim.<module>.<name>`` attributes, and ``bench/cases.py`` attributes of
the trace ``engine.run`` returns.  This reads them from the bench's source
by AST, without importing it, and resolves each name in fbsim.
"""

import ast
import importlib
from pathlib import Path

from fbsim.engine import run
from fbsim.workloads import preset

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: wraps already known to name nothing (ROADMAP item 23): their metrics read 0
DEAD_WRAPS = {
    "engine.build_sources",
    "engine.enqueue_arrival",
    "engine.service_port",
    "engine.EventTrace.queue_counts",
}


def _dotted(node, aliases):
    """``node`` as a dotted name with its first part's alias resolved, or
    None when it is not a plain name or attribute chain."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


def _exists(dotted: str) -> bool:
    """Whether ``fbsim.<module>.<name>...`` names an attribute of fbsim."""
    _, module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"fbsim.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def wrap_targets() -> set[str]:
    """Every ``tracer.wrap(owner, attr, ...)`` target in spans.py, dotted
    from ``fbsim``: ``attr`` is a string or a loop name over a tuple of them."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    aliases, loops = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if (name := _dotted(node.value, {})) and name.startswith("fbsim."):
                aliases[node.targets[0].id] = name
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            loops[node.target.id] = [ast.literal_eval(e) for e in node.iter.elts]
    targets = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and _dotted(node.func.value, {}) == "tracer"):
            owner, attr = node.args[:2]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            targets.update(f"{_dotted(owner, aliases)}.{name}" for name in names)
    return targets


def module_reads(filename: str) -> set[str]:
    """Every ``fbsim.<module>.<name>...`` attribute chain in a bench file."""
    tree = ast.parse((BENCH / filename).read_text())
    return {name for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (name := _dotted(node, {})) and name.startswith("fbsim.") and name.count(".") > 1}


def test_the_bench_wraps_only_names_fbsim_has_or_the_known_dead_ones():
    targets = wrap_targets()
    assert all(t.startswith("fbsim.") for t in targets)
    assert {"fbsim.engine.run", "fbsim.engine.controller_tick", "fbsim.cli.main"} <= targets
    dead = {t.removeprefix("fbsim.") for t in targets if not _exists(t)}
    assert dead == DEAD_WRAPS


def test_the_bench_reads_only_names_fbsim_has():
    for filename in ("cases.py", "run.py"):
        reads = module_reads(filename)
        assert reads, filename
        assert [name for name in sorted(reads) if not _exists(name)] == [], filename


def trace_reads() -> set[str]:
    """Every attribute ``bench/cases.py`` reads off a run's trace: the reads
    on the names ``trace`` and ``fb``, each bound to an ``engine.run``."""
    tree = ast.parse((BENCH / "cases.py").read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in ("trace", "fb")}


def test_the_bench_reads_only_trace_attributes_a_run_returns():
    reads = trace_reads()
    assert {"records", "samples", "final_lengths", "verify_conservation"} <= reads
    trace = run(preset("fig2"))
    assert [name for name in sorted(reads) if not hasattr(trace, name)] == []
