"""Per-layer trace, recorded from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer of the
``repro`` package with a span recorder that lives in this file, so the
program itself is not changed.  Each span records name, start, end, parent
span and job id; spans stay in memory until :meth:`LayerTrace.write_spans`.
A layer's self time is the duration of its spans minus the time their child
spans cover.

Functions that other modules import by name are wrapped at every module
attribute that is bound to them, so ``repro.sizing.engine.prune_paths`` and
a lazy ``from ..lint.runner import lint_circuit`` both reach the wrapper.

:meth:`LayerTrace.metrics` turns the spans, the outcome tallies gathered by
the wrappers and the deltas of ``repro.obs.metrics.registry()`` into the
per-layer metrics; :meth:`LayerTrace.self_check` compares wrapper call
counts with the program's own counters.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.baseline.overdesign import OverdesignSizer
from repro.cache.store import SizingCache
from repro.core.advisor import SmartAdvisor
from repro.lint.dataflow import interval as dataflow_interval
from repro.lint import runner as lint_runner
from repro.lint.solution.audit import SolutionAudit
from repro.lint.solution.certificate import SolutionCertificateStore
from repro.macros.base import MacroGenerator
from repro.obs import metrics as obs_metrics
from repro.posy import Posynomial
from repro.sim.timing import StaticTimingAnalyzer
from repro.sizing import engine as sizing_engine
from repro.sizing import pruning as sizing_pruning
from repro.sizing.collapse import RegularityCollapsedSizer
from repro.sizing.constraints import ConstraintGenerator
from repro.sizing.engine import SmartSizer
from repro.sizing.gp import GeometricProgram, GPInfeasibleError
from repro.sizing.paths import PathExtractor

#: (span name, class, method names) for the layer entry points on classes.
METHOD_LAYERS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("sim.timing.analyze", StaticTimingAnalyzer, ("analyze",)),
    ("sim.timing.path_delay", StaticTimingAnalyzer, ("path_delay",)),
    ("sizing.constraints.generate", ConstraintGenerator, ("generate",)),
    ("sizing.gp.solve", GeometricProgram, ("solve",)),
    ("sizing.paths.extract", PathExtractor,
     ("count", "extract", "extract_representative")),
    ("sizing.engine", SmartSizer, ("size",)),
    ("sizing.collapse", RegularityCollapsedSizer,
     ("size", "equivalence_classes")),
    ("lint.solution.certify", SolutionAudit, ("certify",)),
    ("cache", SizingCache, ("get", "nearest", "put")),
    ("cache", SolutionCertificateStore, ("get", "put")),
    ("core.advisor", SmartAdvisor, ("advise",)),
    ("baseline.size", OverdesignSizer, ("size",)),
    ("macros.generate", MacroGenerator, ("generate",)),
)

#: (span name, defining module, function name) for module-level entry
#: points; every module attribute bound to the same function is wrapped.
FUNCTION_LAYERS = (
    ("sizing.pruning.prune", sizing_pruning, "prune_paths"),
    ("lint.dataflow.screen", dataflow_interval, "screen_feasibility"),
    ("lint.lint_circuit", lint_runner, "lint_circuit"),
    ("cache", sizing_engine, "sizing_cache_key"),
)

#: Wrapper call counts that must equal the program's own counters.
COUNTER_PAIRS = (
    ("sim.timing.analyze", "sta.analyses"),
    ("sim.timing.path_delay", "sta.path_delays"),
    ("sizing.gp.solve", "gp.solves"),
    ("sizing.pruning.prune", "prune.runs"),
    ("lint.lint_circuit", "lint.runs"),
)

#: Registry counters whose deltas feed the per-layer metrics.
REGISTRY_COUNTERS = (
    "sta.analyses", "sta.path_delays", "sta.node_visits", "gp.solves",
    "gp.phase1_solves", "prune.runs", "lint.runs",
    "lint.rules_executed", "lint.rules_replayed", "paths.enumerated",
    "paths.representative", "cache.exact_hits", "cache.cert_hits",
    "cache.warm_hits", "cache.verify_failures",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """Span recorder over the layer entry points (see module docstring)."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent index, job id]`` list per span
        self.spans: List[list] = []
        self.job = -1
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.posynomials = 0
        self.terms = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._registry_before: Dict[str, float] = {}
        #: registry counter deltas over the traced pass, set by uninstall
        self.registry_delta: Dict[str, float] = {}

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for name, cls, methods in METHOD_LAYERS:
            for method in methods:
                original = cls.__dict__[method]
                post = _POST_HOOKS.get((cls.__name__, method))
                self._set(cls, method, self._wrap(name, original, post))
        for name, module, attr in FUNCTION_LAYERS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, _POST_HOOKS.get(attr))
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._count_posynomials()
        registry = obs_metrics.registry()
        self._registry_before = {
            key: registry.counter(key).value for key in REGISTRY_COUNTERS
        }

    def uninstall(self) -> None:
        registry = obs_metrics.registry()
        self.registry_delta = {
            key: registry.counter(key).value - before
            for key, before in self._registry_before.items()
        }
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable, post: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, tally = self.calls, self.tally

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if post is not None:
                    post(tally, None, exc)
                raise
            record[2] = clock()
            stack.pop()
            if post is not None:
                post(tally, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_posynomials(self) -> None:
        original = Posynomial.__init__
        trace = self

        def counting_init(self, terms):
            original(self, terms)
            trace.posynomials += 1
            trace.terms += len(self._terms)

        self._set(Posynomial, "__init__", counting_init)

    # -- job scoping -----------------------------------------------------------

    def job_span(self, job_id: int):
        """Context manager: a root span around one job."""
        return _JobSpan(self, job_id)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def self_check(self) -> List[str]:
        """Mismatches between wrapper call counts and program counters."""
        problems = []
        for span_name, counter in COUNTER_PAIRS:
            seen = self.calls[span_name]
            counted = self.registry_delta[counter]
            if seen != counted:
                problems.append(
                    f"{span_name}: {seen} wrapper calls but {counter} "
                    f"counted {counted:g}"
                )
        return problems

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        st = self.self_times()
        reg = self.registry_delta
        calls, tally = self.calls, self.tally
        cache_lookups = tally["cache.lookups"]
        candidates = tally["advisor.candidates"]
        lint_rules = reg["lint.rules_executed"] + reg["lint.rules_replayed"]
        return {
            "sim.timing.analyze_s": (st.get("sim.timing.analyze", 0.0), "s"),
            "sim.timing.analyze_calls": (calls["sim.timing.analyze"], "count"),
            "sim.timing.path_delay_s": (
                st.get("sim.timing.path_delay", 0.0), "s"),
            "sim.timing.path_delay_calls": (
                calls["sim.timing.path_delay"], "count"),
            "sim.timing.node_visits": (reg["sta.node_visits"], "count"),
            "sizing.constraints.generate_s": (
                st.get("sizing.constraints.generate", 0.0), "s"),
            "sizing.constraints.generate_calls": (
                calls["sizing.constraints.generate"], "count"),
            "posy.posynomials_built": (self.posynomials, "count"),
            "posy.terms_built": (self.terms, "count"),
            "sizing.gp.solve_s": (st.get("sizing.gp.solve", 0.0), "s"),
            "sizing.gp.solves": (calls["sizing.gp.solve"], "count"),
            "sizing.gp.phase1_solves": (reg["gp.phase1_solves"], "count"),
            "sizing.gp.iterations": (tally["gp.iterations"], "count"),
            "sizing.gp.infeasible_share": (
                _share(tally["gp.infeasible"], calls["sizing.gp.solve"]),
                "ratio"),
            "sizing.paths.extract_s": (
                st.get("sizing.paths.extract", 0.0), "s"),
            "sizing.paths.enumerated": (
                reg["paths.enumerated"] + reg["paths.representative"],
                "count"),
            "sizing.pruning.prune_s": (
                st.get("sizing.pruning.prune", 0.0), "s"),
            "sizing.engine.self_s": (st.get("sizing.engine", 0.0), "s"),
            "sizing.engine.refinements_per_size": (
                _share(tally["engine.iterations"], tally["engine.sizes"]),
                "ratio"),
            "sizing.collapse.self_s": (st.get("sizing.collapse", 0.0), "s"),
            "sizing.collapse.fallback_share": (
                _share(tally["collapse.fallbacks"], tally["collapse.sizes"]),
                "ratio"),
            "sizing.collapse.free_label_ratio": (
                _share(tally["collapse.free_ratio_sum"],
                       tally["collapse.sizes"]),
                "ratio"),
            "lint.solution.certify_s": (
                st.get("lint.solution.certify", 0.0), "s"),
            "lint.solution.certify_calls": (
                calls["lint.solution.certify"], "count"),
            "lint.solution.accepted_share": (
                _share(tally["certify.accepted"],
                       calls["lint.solution.certify"]),
                "ratio"),
            "lint.dataflow.screen_s": (
                st.get("lint.dataflow.screen", 0.0), "s"),
            "lint.dataflow.screen_calls": (
                calls["lint.dataflow.screen"], "count"),
            "lint.dataflow.screen_decisive_share": (
                _share(tally["screen.decisive"],
                       calls["lint.dataflow.screen"]),
                "ratio"),
            "lint.lint_circuit_s": (st.get("lint.lint_circuit", 0.0), "s"),
            "lint.rules_executed": (reg["lint.rules_executed"], "count"),
            "lint.replay_share": (
                _share(reg["lint.rules_replayed"], lint_rules), "ratio"),
            "cache.self_s": (st.get("cache", 0.0), "s"),
            "cache.exact_hit_share": (
                _share(reg["cache.exact_hits"], cache_lookups), "ratio"),
            "cache.cert_hit_share": (
                _share(reg["cache.cert_hits"], cache_lookups), "ratio"),
            "cache.warm_hit_share": (
                _share(reg["cache.warm_hits"], cache_lookups), "ratio"),
            "cache.verify_failures": (reg["cache.verify_failures"], "count"),
            "core.advisor.self_s": (st.get("core.advisor", 0.0), "s"),
            "core.advisor.sized_share": (
                _share(tally["advisor.sized"], candidates), "ratio"),
            "core.advisor.screened_share": (
                _share(tally["advisor.screened"], candidates), "ratio"),
            "baseline.size_s": (st.get("baseline.size", 0.0), "s"),
            "macros.generate_s": (st.get("macros.generate", 0.0), "s"),
            "job.unattributed_s": (st.get("job", 0.0), "s"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(
                {"fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class _JobSpan:
    def __init__(self, trace: LayerTrace, job_id: int):
        self.trace = trace
        self.job_id = job_id

    def __enter__(self):
        trace = self.trace
        trace.job = self.job_id
        self.index = len(trace.spans)
        trace.spans.append(
            ["job", time.perf_counter(), 0.0, -1, self.job_id])
        trace._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        trace = self.trace
        trace.spans[self.index][2] = time.perf_counter()
        trace._stack.pop()
        trace.job = -1
        return False


# -- outcome tallies, keyed by (class name, method) or function name ----------

def _post_gp(tally, result, exc):
    if isinstance(exc, GPInfeasibleError):
        tally["gp.infeasible"] += 1
    elif result is not None:
        tally["gp.iterations"] += result.iterations
        if result.status == "infeasible":
            tally["gp.infeasible"] += 1


def _post_engine(tally, result, exc):
    if result is not None:
        tally["engine.sizes"] += 1
        tally["engine.iterations"] += result.iterations


def _post_collapse(tally, result, exc):
    if result is not None:
        tally["collapse.sizes"] += 1
        tally["collapse.fallbacks"] += int(result.fallback)
        if result.full_free:
            tally["collapse.free_ratio_sum"] += (
                result.collapsed_free / result.full_free)


def _post_certify(tally, result, exc):
    if result is not None and result.ok:
        tally["certify.accepted"] += 1


def _post_screen(tally, result, exc):
    if result is not None and result.verdict != "unknown":
        tally["screen.decisive"] += 1


def _post_cache_get(tally, result, exc):
    tally["cache.lookups"] += 1


def _post_advise(tally, result, exc):
    if result is None:
        return
    for candidate in result.candidates:
        tally["advisor.candidates"] += 1
        tally["advisor.sized"] += int(candidate.sizing is not None)
        tally["advisor.screened"] += int(candidate.screened)


_POST_HOOKS: Dict[object, Callable] = {
    ("GeometricProgram", "solve"): _post_gp,
    ("SmartSizer", "size"): _post_engine,
    ("RegularityCollapsedSizer", "size"): _post_collapse,
    ("SolutionAudit", "certify"): _post_certify,
    ("SizingCache", "get"): _post_cache_get,
    ("SmartAdvisor", "advise"): _post_advise,
    "screen_feasibility": _post_screen,
}
