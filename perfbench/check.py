"""Output check: a fresh full-graph STA run against the job's DelaySpec.

The check shares no code with the sizer's own convergence test.  It runs
:meth:`StaticTimingAnalyzer.analyze` once at the returned widths, walks the
critical chain behind every primary-output arrival back to its launch point,
classifies that chain with the constraint taxonomy of paper Section 5.3
(data / control / evaluate / precharge, split at domino phase boundaries)
and compares the arrival against the budget the DelaySpec gives that class.

It never enumerates paths, so a pruning or constraint-generation fault
cannot hide a late output from it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.models.gates import Transition
from repro.netlist.nets import NetKind, PinClass
from repro.netlist.stages import StageKind
from repro.sim.timing import StaticTimingAnalyzer


def _chain_kind(circuit, chain) -> Tuple[str, int]:
    """(constraint class, domino phase count) of one critical chain."""
    hops = [
        (circuit.stage(e.from_stage), e.from_pin, e.transition)
        for e in chain[1:]
        if e.from_stage is not None
    ]
    if not hops:
        return "data", 1
    first_stage, first_pin, first_out = hops[0]
    launch = circuit.net(chain[0].net)
    if (
        launch.kind is NetKind.CLOCK
        and first_stage.pin(first_pin).pin_class is PinClass.CLOCK
    ):
        if first_out is Transition.RISE:
            return "precharge", 1
        kind = "evaluate"
    elif any(
        stage.pin(pin).pin_class is PinClass.SELECT
        and stage.kind in (StageKind.PASSGATE, StageKind.TRISTATE)
        for stage, pin, _ in hops
    ):
        kind = "control"
    elif any(stage.kind is StageKind.DOMINO for stage, _, _ in hops):
        kind = "evaluate"
    else:
        kind = "data"
    # A clocked domino stage closes a phase when another dynamic stage
    # follows it somewhere downstream on the chain.
    phases = 1
    for i, (stage, _, _) in enumerate(hops):
        if stage.kind is StageKind.DOMINO and stage.clocked and any(
            s.kind is StageKind.DOMINO for s, _, _ in hops[i + 1:]
        ):
            phases += 1
    return kind, phases


def output_arrivals(circuit, library, widths, input_slope: float):
    """``(net, transition, arrival ps, class, phases)`` for every reached
    primary-output event of one fresh full-graph STA run."""
    report = StaticTimingAnalyzer(circuit, library).analyze(
        widths, input_slope=input_slope
    )
    for net in circuit.primary_outputs:
        for trans in Transition:
            event = report.arrival(net, trans)
            if event is None:
                continue
            kind, phases = _chain_kind(circuit, _trace_back(report, event))
            yield net, trans, event.time, kind, phases


def sta_violations(
    circuit, library, widths, spec, tolerance: float
) -> List[str]:
    """Primary-output arrivals that miss ``spec`` by more than ``tolerance``.

    Returns one human-readable line per violation; empty means the widths
    meet the spec.
    """
    problems: List[str] = []
    for net, trans, time, kind, phases in output_arrivals(
        circuit, library, widths, spec.input_slope
    ):
        if phases > 1 and kind != "precharge":
            budget = spec.for_kind("segment") * phases
        else:
            budget = spec.for_kind(kind)
        if time > budget + tolerance:
            problems.append(
                f"{net}/{trans.value} {kind} arrival {time:.2f} ps "
                f"> budget {budget:.2f} ps + {tolerance:g} ps"
            )
    return problems


def _trace_back(report, event) -> list:
    chain = [event]
    while event.src_key is not None:
        prev: Optional[object] = report.arrivals.get(event.src_key)
        if prev is None or prev is event:
            break
        chain.append(prev)
        event = prev
    chain.reverse()
    return chain
