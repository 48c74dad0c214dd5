"""The three seeded job streams and their output checks.

Every workload turns ``--seed`` into an endless job stream made of blocks.
Each block is a seeded permutation of the workload's fixed shape list, and
each shape walks its own seeded cycle of a few input levels (a load
stratum, a collapse delay target or an advise delay scale).  A run is a whole number
of blocks, sized from ``--seconds`` and the block's nominal duration on the
reference host, so every run at every seed does the same number of jobs
and, once each shape has met every level, the same multiset of (shape,
level) jobs.  Run-to-run
spread then comes from the program and the host, not from which shapes a
seed happened to draw, and the tail percentile sits at the same rank in
every run.

A workload object has these steps:

* ``prepare(seed)`` — everything before the first job: database, library,
  and any per-shape reference numbers the jobs need;
* ``stream()`` — the seeded job stream; ``restart(seed)`` rewinds it;
* ``run(job)`` — one job through public ``repro`` API; returns what the
  check needs;
* ``check(done)`` — after the timed loop: the output check, the
  normalized width against :class:`repro.baseline.OverdesignSizer`, and
  per-job failures.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.baseline.overdesign import OverdesignSizer
from repro.cache import SizingCache
from repro.core import DesignConstraints, SmartAdvisor
from repro.core.savings import measure_and_resize
from repro.lint.solution.certificate import SolutionCertificateStore
from repro.macros.base import MacroSpec
from repro.macros.registry import default_database
from repro.models.gates import ModelLibrary
from repro.models.technology import Technology
from repro.sizing import DelaySpec, RegularityCollapsedSizer
from repro.sizing.engine import nominal_delay

from check import output_arrivals, sta_violations
from stats import TAIL_BEYOND

#: The sizer's default convergence tolerance, ps; the check allows the same.
TOLERANCE = 2.0
#: The savings protocol's input slope, "same performance" band and
#: precharge loosening (the ``measure_and_resize`` defaults the savings
#: jobs run with).
INPUT_SLOPE = 30.0
TIMING_SLACK = 1.05
PRECHARGE_SLACK = 2.5
#: Every run holds at least this many jobs, so the tail percentile (10 jobs
#: beyond it, see stats.tail) reaches p75, well above the median.
MIN_JOBS = 4 * TAIL_BEYOND


@dataclass
class Job:
    index: int
    inputs: Dict[str, object]


@dataclass
class Done:
    """One finished (or raised) job of the timed loop."""

    job: Job
    latency_s: float
    output: object = None
    error: str = ""


@dataclass
class Verdict:
    """Result of the output check over all finished jobs."""

    candidates: int = 0
    feasible_ok: int = 0
    norm_widths: List[float] = field(default_factory=list)
    #: (job, reason) for every failed job
    failures: List[Tuple[Job, str]] = field(default_factory=list)


def _draws(rng: random.Random, shapes: tuple, levels: tuple) -> Iterator:
    """Endless ``(shape, level)`` draws: each block is a seeded permutation
    of ``shapes``, and each distinct shape walks its own seeded cycle of
    ``levels``, one step per occurrence."""
    cycles = {
        shape: itertools.cycle(rng.sample(levels, len(levels)))
        for shape in dict.fromkeys(shapes)
    }
    while True:
        for shape in rng.sample(shapes, len(shapes)):
            yield shape, next(cycles[shape])


class Workload:
    name = ""
    #: The shapes one block permutes.
    shapes: tuple = ()
    #: Wall time of one block on the reference host (2 cores), s.
    block_seconds = 1.0

    def jobs_for(self, seconds: float) -> int:
        """Jobs in a run of about ``seconds``: whole blocks, at least
        :data:`MIN_JOBS` jobs."""
        size = len(self.shapes)
        blocks = max(math.ceil(MIN_JOBS / size),
                     round(seconds / self.block_seconds))
        return blocks * size

    def prepare(self, seed: int) -> None:
        self.library = ModelLibrary(Technology())
        self.database = default_database()
        self.rng = random.Random(seed)

    def restart(self, seed: int) -> None:
        """Rewind the stream to its first job and drop any state the jobs
        built up, so a second pass sees the same inputs as the first."""
        self.rng = random.Random(seed)

    def stream(self) -> Iterator[Job]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small job outside the stream, so no timed job pays a
        first-call cost."""

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, done: List[Done]) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _baseline_area(self, circuit) -> float:
        return OverdesignSizer(circuit, self.library).size().area


# -- savings-corpus -------------------------------------------------------------

#: (topology, width, extra MacroSpec params).  One block holds every shape
#: once.  Every shape has at most :data:`EXACT_PATH_LIMIT` paths: above that,
#: measure_class_delays measures the original on representative paths only
#: and under-measures its delay, so the 12- and 16-bit ripple adders fail the
#: output check (see README "Known defect").
SAVINGS_SHAPES: Tuple[Tuple[str, int, tuple], ...] = (
    ("mux/strong_mutex_passgate", 4, ()),
    ("mux/weak_mutex_passgate", 8, ()),
    ("mux/tristate", 6, ()),
    ("mux/unsplit_domino", 8, ()),
    ("mux/partitioned_domino", 8, ()),
    ("mux/encoded_select_2to1", 2, ()),
    ("incrementor/ripple", 8, ()),
    ("incrementor/prefix", 8, ()),
    ("decrementor/ripple", 6, ()),
    ("decrementor/prefix", 8, ()),
    ("zero_detect/static_tree", 16, ()),
    ("zero_detect/domino", 16, ()),
    ("zero_detect/split_domino", 32, ()),
    ("decoder/flat_static", 3, ()),
    ("decoder/predecoded", 4, ()),
    ("decoder/domino", 4, ()),
    ("comparator/xorsum1", 32, ()),
    ("comparator/xorsum2", 32, ()),
    ("comparator/xorsum4", 32, ()),
    ("shifter/passgate_barrel", 4, ()),
    ("shifter/tristate_barrel", 8, ()),
    ("register_file/domino_bitline", 4, (("registers", 8),)),
    ("register_file/tristate_bitline", 4, (("registers", 4),)),
    ("adder/static_ripple", 4, ()),
    ("adder/static_ripple", 8, ()),
    ("adder/static_ripple", 10, ()),
)
#: The path count above which measure_class_delays stops enumerating paths.
EXACT_PATH_LIMIT = 20_000
#: Output-load strata, fF: each shape meets both in two blocks (one run)
#: and draws its load uniformly inside the stratum, which keeps the latency
#: distribution smooth around the median.
SAVINGS_LOADS = ((15.0, 37.5), (37.5, 60.0))


def _savings_budgets(specs: Dict[str, float]) -> DelaySpec:
    """The job's DelaySpec timing budgets, read back per constraint class
    from the SMART result (the savings protocol derives them internally)."""
    by_kind: Dict[str, float] = {}
    for name, value in specs.items():
        kind = name.rsplit(".", 1)[-1]
        if kind == "otb":
            continue
        by_kind[kind] = max(by_kind.get(kind, 0.0), value)
    fallback = max(
        (v for k, v in by_kind.items() if k != "precharge"),
        default=max(by_kind.values()),
    )
    return DelaySpec(
        data=by_kind.get("data", fallback),
        control=by_kind.get("control", fallback),
        evaluate=by_kind.get("evaluate", fallback),
        precharge=by_kind.get("precharge"),
        phase_budget=by_kind.get("segment"),
    )


def _looser_than_original(circuit, library, result) -> List[str]:
    """Budgets the sizer recorded that exceed the original's own full-STA
    timing times the protocol's slack: a spec loosened on the way in."""
    original: Dict[bool, float] = {}
    for *_, arrival, kind, _phases in output_arrivals(
        circuit, library, result.baseline.widths, INPUT_SLOPE
    ):
        precharge = kind == "precharge"
        original[precharge] = max(original.get(precharge, 0.0), arrival)
    recorded: Dict[bool, float] = {}
    for name, value in result.smart.specs.items():
        precharge = name.endswith(".precharge")
        recorded[precharge] = max(recorded.get(precharge, 0.0), value)
    problems = []
    for precharge, budget in recorded.items():
        slack = TIMING_SLACK * (PRECHARGE_SLACK if precharge else 1.0)
        if precharge in original and (
            budget > slack * original[precharge] + TOLERANCE
        ):
            problems.append(
                f"{'precharge' if precharge else 'timing'} budget "
                f"{budget:.2f} ps exceeds {slack:g} x the original's "
                f"{original[precharge]:.2f} ps")
    return problems


class SavingsCorpus(Workload):
    name = "savings-corpus"
    shapes = SAVINGS_SHAPES
    block_seconds = 11.5

    def stream(self) -> Iterator[Job]:
        for index, ((topology, width, params), (low, high)) in enumerate(
            _draws(self.rng, self.shapes, SAVINGS_LOADS)
        ):
            load = round(self.rng.uniform(low, high), 2)
            yield Job(index, {
                "topology": topology, "width": width,
                "params": params, "load": load,
            })

    def _spec(self, inputs) -> MacroSpec:
        family = str(inputs["topology"]).split("/")[0]
        return MacroSpec(
            family, int(inputs["width"]), float(inputs["load"]),
            tuple(inputs["params"]),
        )

    def warm_up(self) -> None:
        self.run(Job(-1, {"topology": "mux/tristate", "width": 2,
                          "params": (), "load": 20.0}))

    def run(self, job: Job):
        inputs = job.inputs
        circuit = self.database.generate(
            inputs["topology"], self._spec(inputs), self.library.tech
        )
        return measure_and_resize(
            circuit, self.library, topology=inputs["topology"]
        )

    def check(self, done: List[Done]) -> Verdict:
        verdict = Verdict()
        for item in done:
            verdict.candidates += 1
            if item.error:
                verdict.failures.append((item.job, item.error))
                continue
            result = item.output
            if not result.timing_met:
                verdict.failures.append((
                    item.job,
                    f"SMART did not converge (residual "
                    f"{result.smart.worst_violation:.2f} ps)",
                ))
                continue
            circuit = self.database.generate(
                item.job.inputs["topology"], self._spec(item.job.inputs),
                self.library.tech,
            )
            problems = sta_violations(
                circuit, self.library, result.smart.widths,
                _savings_budgets(result.smart.specs), TOLERANCE,
            ) + _looser_than_original(circuit, self.library, result)
            if problems:
                verdict.failures.append((item.job, "; ".join(problems[:3])))
                continue
            verdict.feasible_ok += 1
            verdict.norm_widths.append(result.normalized_width)
        return verdict


# -- collapse-certify -----------------------------------------------------------

#: Three widths that enumerate every path and two that are sized on
#: representative paths (more than 20 000 paths).  Their job times are far
#: apart, so with eight blocks a run's median falls inside the 6-bit jobs and
#: its tail inside the 11-bit ones, not where two widths overlap.  The 9- to
#: 10-bit adders (2-3.5 s a job) and 14 to 16 bits (1.8-2.5 s) would leave
#: too few jobs in a run for the tail to reach p75.
COLLAPSE_WIDTHS = (4, 5, 6, 11, 12)
#: Delay targets as multiples of the nominal delay; eight blocks meet each
#: twice.  Fixed levels, not draws inside strata as for SAVINGS_LOADS, so
#: every run does the same 40 jobs and only their order, which the seed
#: decides, and the host's speed vary.
COLLAPSE_FACTORS = (0.85, 0.8833, 0.9167, 0.95)


class CollapseCertify(Workload):
    name = "collapse-certify"
    shapes = COLLAPSE_WIDTHS
    block_seconds = 3.9

    def _circuit(self, width: int):
        return self.database.generate(
            "adder/static_ripple",
            MacroSpec("adder", width, 20.0, (("label_group", 1),)),
            self.library.tech,
        )

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.nominal = {
            width: nominal_delay(self._circuit(width), self.library)
            for width in COLLAPSE_WIDTHS
        }

    def stream(self) -> Iterator[Job]:
        for index, (width, factor) in enumerate(
            _draws(self.rng, self.shapes, COLLAPSE_FACTORS)
        ):
            yield Job(index, {
                "width": width, "factor": factor,
                "delay": self.nominal[width] * factor,
            })

    def warm_up(self) -> None:
        circuit = self._circuit(3)
        spec = DelaySpec(data=0.9 * nominal_delay(circuit, self.library))
        RegularityCollapsedSizer(circuit, self.library, with_kkt=False).size(
            spec, tolerance=TOLERANCE
        )

    def run(self, job: Job):
        circuit = self._circuit(int(job.inputs["width"]))
        spec = DelaySpec(data=float(job.inputs["delay"]))
        return RegularityCollapsedSizer(
            circuit, self.library, with_kkt=False
        ).size(spec, tolerance=TOLERANCE)

    def check(self, done: List[Done]) -> Verdict:
        verdict = Verdict()
        baselines: Dict[int, float] = {}
        for item in done:
            verdict.candidates += 1
            if item.error:
                verdict.failures.append((item.job, item.error))
                continue
            outcome = item.output
            result = outcome.result
            if not result.converged:
                verdict.failures.append((
                    item.job,
                    f"did not converge (residual "
                    f"{result.worst_violation:.2f} ps)",
                ))
                continue
            if not outcome.fallback and not (
                outcome.certificate is not None and outcome.certificate.ok
            ):
                verdict.failures.append(
                    (item.job, "collapsed result without an accepted "
                               "certificate"))
                continue
            width = int(item.job.inputs["width"])
            circuit = self._circuit(width)
            spec = DelaySpec(data=float(item.job.inputs["delay"]))
            problems = sta_violations(
                circuit, self.library, result.widths, spec, TOLERANCE
            )
            if problems:
                verdict.failures.append((item.job, "; ".join(problems[:3])))
                continue
            if width not in baselines:
                baselines[width] = self._baseline_area(circuit)
            verdict.feasible_ok += 1
            verdict.norm_widths.append(result.area / baselines[width])
        return verdict


# -- advise-cached --------------------------------------------------------------

#: (macro, width, output load fF, params), most popular first.
ADVISE_TEMPLATES: Tuple[Tuple[str, int, float, tuple], ...] = (
    ("mux", 4, 20.0, ()),
    ("zero_detect", 16, 20.0, ()),
    ("decoder", 3, 20.0, ()),
    ("mux", 8, 30.0, ()),
    ("incrementor", 4, 20.0, ()),
    ("shifter", 4, 20.0, ()),
    ("decoder", 4, 25.0, ()),
    ("mux", 6, 40.0, ()),
    ("zero_detect", 32, 30.0, ()),
    ("decrementor", 4, 20.0, ()),
    ("register_file", 4, 20.0, (("registers", 4),)),
    ("adder", 4, 20.0, ()),
)
#: Requests per template in one block: Zipf (exponent 1) over popularity.
ADVISE_BLOCK_COUNTS = (6, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
#: Delay targets as multiples of the template's fastest nominal delay.
ADVISE_SCALES = (0.9, 1.0, 1.15, 1.3)


def _widths_match(a: Dict[str, float], b: Dict[str, float]) -> bool:
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= 1e-9 * max(1.0, abs(b[k])) for k in a
    )


class AdviseCached(Workload):
    name = "advise-cached"
    #: template indices, each as often per block as its Zipf count
    shapes = tuple(
        index
        for index, count in enumerate(ADVISE_BLOCK_COUNTS)
        for _ in range(count)
    )
    block_seconds = 6.0

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.templates = {}
        for index, (macro, width, load, params) in enumerate(ADVISE_TEMPLATES):
            spec = MacroSpec(macro, width, load, params)
            fastest = min(
                nominal_delay(g.generate(spec, self.library.tech), self.library)
                for g in self.database.applicable(spec)
            )
            self.templates[index] = (spec, fastest)
        self.tmp = tempfile.TemporaryDirectory(dir=os.environ["PERFBENCH_OUT"])
        self.fresh_advisor()

    def restart(self, seed: int) -> None:
        super().restart(seed)
        self.fresh_advisor()

    def fresh_advisor(self) -> None:
        """A new advisor on a new, empty cache and certificate store."""
        path = tempfile.mkdtemp(dir=self.tmp.name)
        certificates = SolutionCertificateStore(
            os.path.join(path, "certificates.jsonl"))
        cache = SizingCache(
            os.path.join(path, "sizing.jsonl"), certificates=certificates)
        self.advisor = SmartAdvisor(
            database=self.database, library=self.library, cache=cache)

    def stream(self) -> Iterator[Job]:
        # Each template walks its own seeded cycle of the delay scales, so
        # every run sees the same number of cold, warm and repeated
        # requests; the seed decides which targets and in what order.
        for index, (template, scale) in enumerate(
            _draws(self.rng, self.shapes, ADVISE_SCALES)
        ):
            spec, fastest = self.templates[template]
            yield Job(index, {
                "template": template, "macro": spec.macro_type,
                "width": spec.width, "load": spec.output_load,
                "scale": scale, "delay": round(fastest * scale, 6),
            })

    def warm_up(self) -> None:
        spec, fastest = self.templates[0]
        self.advisor.advise(spec, DesignConstraints(delay=fastest), workers=1)

    def run(self, job: Job):
        spec, _ = self.templates[int(job.inputs["template"])]
        return self.advisor.advise(
            spec, DesignConstraints(delay=float(job.inputs["delay"])),
            workers=1,
        )

    def check(self, done: List[Done]) -> Verdict:
        verdict = Verdict()
        first: Dict[tuple, object] = {}
        checked: Dict[tuple, List[str]] = {}
        baselines: Dict[tuple, float] = {}
        for item in done:
            if item.error:
                verdict.candidates += 1
                verdict.failures.append((item.job, item.error))
                continue
            report = item.output
            spec, _ = self.templates[int(item.job.inputs["template"])]
            constraints = DesignConstraints(delay=float(item.job.inputs["delay"]))
            request = (item.job.inputs["template"], item.job.inputs["scale"])
            reasons = []
            for candidate in report.candidates:
                verdict.candidates += 1
                if not (candidate.feasible and candidate.converged):
                    continue
                key = request + (candidate.topology,
                                 tuple(sorted(candidate.sizing.widths.items())))
                if key not in checked:
                    circuit = self.database.generate(
                        candidate.topology, spec, self.library.tech)
                    checked[key] = sta_violations(
                        circuit, self.library, candidate.sizing.widths,
                        constraints.to_delay_spec(), TOLERANCE,
                    )
                if checked[key]:
                    reasons.append(
                        f"{candidate.topology}: {'; '.join(checked[key][:2])}")
                else:
                    verdict.feasible_ok += 1
            best = report.best
            if best is None:
                reasons.append("no topology converged")
            elif request in first:
                cold = first[request]
                if (cold.topology != best.topology
                        or not _widths_match(best.sizing.widths,
                                             cold.sizing.widths)):
                    reasons.append(
                        f"repeat returned {best.topology} with different "
                        f"widths from the cold {cold.topology}")
            else:
                first[request] = best
            if reasons:
                verdict.failures.append((item.job, "; ".join(reasons)))
                continue
            base_key = (item.job.inputs["template"], best.topology)
            if base_key not in baselines:
                baselines[base_key] = self._baseline_area(
                    self.database.generate(best.topology, spec,
                                           self.library.tech))
            verdict.norm_widths.append(best.sizing.area / baselines[base_key])
        return verdict

    def close(self) -> None:
        self.tmp.cleanup()


WORKLOADS = {cls.name: cls for cls in (SavingsCorpus, CollapseCertify,
                                       AdviseCached)}
