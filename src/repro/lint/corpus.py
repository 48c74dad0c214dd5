"""One verification-corpus runner for the SVC4xx, NSA6xx and OPT7xx groups.

``python -m repro.lint.corpus --group {symbolic,electrical,solution}`` runs
one verified rule group over the clean corpus and the seeded mutant corpus
that :data:`GROUPS` registers for it:

* ``symbolic`` — every applicable generator of the default macro database
  over :data:`WIDTH_GRID`, each proved (or, above the exact budget,
  sample-tested) equal to its golden functional spec; no mutants;
* ``electrical`` — the same grid, plus the seeded noise mutants of
  :mod:`repro.lint.electrical.mutate`;
* ``solution`` — honest collapsed-and-certified sizing runs, plus the
  seeded solution mutants of :mod:`repro.lint.solution.mutate`.

The gate is asymmetric: the clean corpus must produce no non-waived error
(quantitative warnings are reported but tolerated), and every mutant must
be flagged by exactly its intended rule — the expected rule fires and no
other rule of the group cross-fires.

``--rule-cache FILE`` threads the incremental engine through the sweep, so
a warm rerun on an unchanged tree replays every finding byte-identically.
``--json-out FILE`` dumps the serialized findings, mutant verdicts and
cache stats, which CI uses to assert that.  ``--sarif FILE`` writes the
combined SARIF 2.1.0 log.  ``--certs FILE`` persists the certificates the
clean cases issued as ``smart-solution-certificate/1`` JSONL; the file is
empty for groups that issue none.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..netlist.circuit import Circuit
from .diagnostics import LintReport
from .incremental import RuleResultCache, serialize_diagnostic
from .registry import Mutant, rules_in_groups
from .runner import lint_circuit
from .waivers import load_waivers

#: Width sweep per macro type.  Entries are ``(width, params)``; the driver
#: skips (generator, spec) pairs the generator declares inapplicable, so the
#: grid can be generous.
WIDTH_GRID: Sequence[Tuple[str, int, Tuple[Tuple[str, object], ...]]] = tuple(
    [("mux", w, ()) for w in range(2, 9)]
    + [("adder", w, ()) for w in (2, 4, 8, 16)]
    + [("comparator", 32, ())]
    + [("incrementor", w, ()) for w in (4, 6, 8)]
    + [("decrementor", w, ()) for w in (4, 6, 8)]
    + [("zero_detect", w, ()) for w in (4, 8, 16)]
    + [("decoder", w, ()) for w in (2, 3, 4, 5)]
    + [("encoder", w, ()) for w in (2, 3, 4)]
    + [("shifter", w, ()) for w in (4, 8)]
    + [
        ("register_file", w, (("registers", r),))
        for w, r in ((1, 4), (2, 4), (2, 8))
    ]
)


def corpus_circuits(grid=WIDTH_GRID) -> Iterable[Tuple[str, Circuit]]:
    """Yield ``(label, circuit)`` for every applicable (topology, spec) pair
    in the grid, with golden specs attached via ``generate()``."""
    from ..macros.base import MacroSpec
    from ..macros.registry import default_database
    from ..models.technology import Technology

    tech = Technology()
    database = default_database()
    for macro_type, width, params in grid:
        spec = MacroSpec(macro_type, width, params=params)
        for generator in database.applicable(spec):
            label = f"{generator.name}[{width}]"
            if params:
                label += "".join(f" {k}={v}" for k, v in params)
            yield label, generator.generate(spec, tech)


#: ``(label, circuit, options, certificate)``; the certificate payload is
#: ``None`` unless the clean case issued one.
CleanCase = Tuple[str, Circuit, dict, Optional[dict]]


class Group(NamedTuple):
    """A verified rule group's two corpora, as zero-argument sources."""

    clean: Callable[[], Iterable[CleanCase]]
    mutants: Callable[[], Iterable[Mutant]]


def _grid_cases() -> Iterable[CleanCase]:
    for label, circuit in corpus_circuits():
        yield label, circuit, {}, None


def _lazy(module: str, name: str) -> Callable[[], Iterable]:
    """Source ``module.name()``, imported on first call (the solution
    sources import the sizer)."""

    def source():
        return getattr(importlib.import_module(module, __package__), name)()

    return source


#: The registry: each verified group's clean-case and mutant sources.
GROUPS: Dict[str, Group] = {
    "symbolic": Group(_grid_cases, lambda: ()),
    "electrical": Group(
        _grid_cases, _lazy(".electrical.mutate", "noise_mutants")
    ),
    "solution": Group(
        _lazy(".solution.mutate", "clean_cases"),
        _lazy(".solution.mutate", "solution_mutants"),
    ),
}


def _lint_row(
    circuit: Circuit, options: dict, group: str, waivers,
    rule_cache: Optional[RuleResultCache],
) -> Tuple[LintReport, str]:
    """Lint one corpus circuit; returns the report and its timing suffix."""
    start = time.perf_counter()
    report = lint_circuit(
        circuit, groups=(group,), waivers=waivers, options=options,
        cache=rule_cache,
    )
    elapsed = time.perf_counter() - start
    replayed = sum(1 for _, _, s in report.executed if s == "replayed")
    cached = f" cached={replayed}" if replayed else ""
    return report, f"({elapsed:.2f}s){cached}"


def _print_findings(report: LintReport) -> None:
    for diag in report.diagnostics:
        if not diag.waived:
            print(f"     {diag.format()}")


def run_group(
    group: str,
    waivers=(),
    rule_cache: Optional[RuleResultCache] = None,
) -> Tuple[List[LintReport], List[dict], List[dict]]:
    """Lint ``group``'s clean corpus and mutant corpus.

    Returns ``(reports, certificates, verdicts)``: one report per clean
    case, the certificates the clean cases issued, and one verdict per
    mutant — ``{"label", "expected", "fired", "flagged", "cross_fired",
    "report"}``, where ``fired`` lists the group's non-waived rules.
    """
    sources = GROUPS[group]
    group_rules = {r.id for r in rules_in_groups((group,))}

    reports: List[LintReport] = []
    certs: List[dict] = []
    for label, circuit, options, cert in sources.clean():
        report, timing = _lint_row(
            circuit, options, group, waivers, rule_cache
        )
        reports.append(report)
        if cert is not None:
            certs.append(cert)
        print(
            f"{'ok' if report.ok else 'FAIL':4s} clean  {label:42s} "
            f"errors={len(report.errors)} warnings={len(report.warnings)} "
            f"waived={len(report.waived)} {timing}"
        )
        _print_findings(report)

    verdicts: List[dict] = []
    for mutant in sources.mutants():
        report, timing = _lint_row(
            mutant.circuit, mutant.options, group, waivers, rule_cache
        )
        fired = sorted({
            d.rule_id for d in report.diagnostics
            if d.rule_id in group_rules and not d.waived
        })
        flagged = mutant.expected_rule in fired
        cross = [r for r in fired if r != mutant.expected_rule]
        print(
            f"{'ok' if flagged and not cross else 'FAIL':4s} mutant "
            f"{mutant.label:42s} expected={mutant.expected_rule} "
            f"fired={','.join(fired) or '-'} {timing}"
        )
        _print_findings(report)
        verdicts.append({
            "label": mutant.label,
            "expected": mutant.expected_rule,
            "fired": fired,
            "flagged": flagged,
            "cross_fired": cross,
            "report": report,
        })
    return reports, certs, verdicts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.corpus",
        description=(
            "run one verified rule group over its clean corpus and its "
            "seeded mutant corpus"
        ),
        epilog=(
            "exit codes: 0 = clean corpus error-free and every mutant "
            "flagged by exactly its intended rule, 1 = gate failed"
        ),
    )
    parser.add_argument(
        "--group", required=True, choices=sorted(GROUPS),
        help="verified rule group to run",
    )
    parser.add_argument(
        "--rule-cache", metavar="FILE", default=None,
        help=(
            "incremental rule-result cache (JSONL); unchanged circuits "
            "replay recorded findings byte-identically"
        ),
    )
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="write combined SARIF 2.1.0 log to FILE",
    )
    parser.add_argument(
        "--json-out", metavar="FILE", default=None,
        help=(
            "dump serialized findings, mutant verdicts and cache stats as "
            "JSON (CI uses this to assert cold/warm replay fidelity)"
        ),
    )
    parser.add_argument(
        "--certs", metavar="FILE", default=None,
        help=(
            "persist the certificates the clean cases issued as a "
            "smart-solution-certificate/1 JSONL artifact"
        ),
    )
    parser.add_argument(
        "--waivers", metavar="FILE", help="waiver/suppression file"
    )
    args = parser.parse_args(argv)

    rule_cache = RuleResultCache(args.rule_cache) if args.rule_cache else None
    waivers = load_waivers(args.waivers) if args.waivers else ()
    clean, certs, verdicts = run_group(args.group, waivers, rule_cache)

    if rule_cache is not None:
        stats = rule_cache.stats
        print(
            f"rule cache: {stats.replayed}/{stats.invocations} replayed "
            f"({stats.hit_rate:.0%}), {stats.wall_saved_s:.2f}s saved"
        )

    if args.certs:
        from .solution.certificate import SolutionCertificateStore

        open(args.certs, "a").close()  # exists even when none was issued
        store = SolutionCertificateStore(args.certs)
        for cert in certs:
            store.put_payload(cert)
        print(f"wrote {len(certs)} certificate(s): {args.certs}")

    all_reports = clean + [v.pop("report") for v in verdicts]
    if args.sarif:
        from .reporters import render_sarif

        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(all_reports))
        print(f"wrote SARIF log: {args.sarif}")

    clean_errors = sum(len(r.errors) for r in clean)
    clean_warnings = sum(len(r.warnings) for r in clean)
    if args.json_out:
        payload = {
            "findings": [
                serialize_diagnostic(d)
                for r in all_reports for d in r.diagnostics
            ],
            "clean_errors": clean_errors,
            "clean_warnings": clean_warnings,
            "mutants": verdicts,
            "rule_cache": (
                rule_cache.stats.as_dict() if rule_cache is not None else None
            ),
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote JSON summary: {args.json_out}")

    bad = [v for v in verdicts if not v["flagged"] or v["cross_fired"]]
    print(
        f"corpus {args.group}: {len(clean)} clean case(s) "
        f"({clean_errors} error(s), {clean_warnings} warning(s)), "
        f"{len(verdicts)} mutant(s) ({len(verdicts) - len(bad)} correctly "
        "flagged)"
    )
    return 0 if clean_errors == 0 and not bad else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
