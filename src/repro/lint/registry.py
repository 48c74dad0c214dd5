"""The rule registry.

Rules are registered at import time with the :func:`rule` decorator and
looked up by stable ID.  IDs follow the flake8 convention of a family prefix
plus a number that never changes meaning once released:

* ``ERC0xx`` — structural electrical rule checks (netlist hygiene);
* ``ERC1xx`` — circuit-family semantics (Section 4: domino, pass, tristate);
* ``DFA3xx`` — whole-circuit dataflow analyses (:mod:`repro.lint.dataflow`);
* ``SVC4xx`` — switch-level symbolic verification (:mod:`repro.lint.symbolic`);
* ``CST1xx`` — constraint-coverage / pruning-certificate verification;
* ``GP2xx``  — geometric-program pre-solve checks;
* ``CTR5xx`` — hierarchical interface-contract composition
  (:mod:`repro.lint.hier`);
* ``OPT7xx`` — post-solve solution-certificate analysis
  (:mod:`repro.lint.solution`).

Circuit rules (groups ``structural`` and ``family``) are callables of one
:class:`~repro.lint.runner.LintContext`; coverage and GP rules are driven by
their dedicated analyzers (:mod:`repro.lint.coverage`,
:mod:`repro.lint.rules_gp`) and registered here for identity, severity, and
``--list-rules`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from ..netlist.fingerprint import FACET_NAMES
from .diagnostics import Severity

if TYPE_CHECKING:
    from ..netlist.circuit import Circuit

#: Known rule groups, in report order.
GROUPS = (
    "structural", "family", "dataflow", "symbolic", "coverage", "gp",
    "contracts", "electrical", "solution",
)


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity + default severity + checker.

    ``facets`` declares which circuit facets
    (:data:`repro.netlist.fingerprint.FACET_NAMES`) the checker reads —
    the invalidation contract of the incremental engine
    (:mod:`repro.lint.incremental`).  Declarations must be supersets of
    what the checker actually inspects; the default (all facets) is always
    sound and merely forgoes incrementality.
    """

    id: str
    title: str
    group: str
    severity: Severity
    doc: str = ""
    check: Optional[Callable] = None
    facets: Tuple[str, ...] = FACET_NAMES


class Mutant(NamedTuple):
    """A seeded defect: ``circuit`` linted with ``options`` must be flagged
    by ``expected_rule`` and by no other rule of that rule's group.

    The verification-corpus runner (:mod:`repro.lint.corpus`) gates on
    these; the type lives here, beside :class:`Rule`, so the mutant
    builders can import it without importing the runner.
    """

    label: str
    circuit: "Circuit"
    options: dict            # full lint options mapping
    expected_rule: str


_REGISTRY: Dict[str, Rule] = {}


def register(rule_obj: Rule) -> Rule:
    if rule_obj.group not in GROUPS:
        raise ValueError(f"unknown rule group {rule_obj.group!r}")
    if rule_obj.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_obj.id}")
    _REGISTRY[rule_obj.id] = rule_obj
    return rule_obj


def rule(
    rule_id: str,
    title: str,
    group: str,
    severity: Severity,
    facets: Tuple[str, ...] = FACET_NAMES,
) -> Callable[[Callable], Callable]:
    """Decorator: register ``func`` as the checker for ``rule_id``.

    The function's docstring becomes the rule's long description.
    ``facets`` is the rule's incremental-invalidation contract (default:
    every facet, i.e. re-run on any circuit change).
    """

    def decorate(func: Callable) -> Callable:
        register(
            Rule(
                id=rule_id,
                title=title,
                group=group,
                severity=severity,
                doc=(func.__doc__ or "").strip(),
                check=func,
                facets=facets,
            )
        )
        return func

    return decorate


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"no rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by ID."""
    _load_builtin_rules()
    return sorted(_REGISTRY.values(), key=lambda r: r.id)


def rules_in_groups(groups: Iterable[str]) -> List[Rule]:
    wanted = set(groups)
    unknown = wanted - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown rule group(s): {sorted(unknown)}")
    return [r for r in all_rules() if r.group in wanted]


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so their ``@rule`` decorators run.

    ``coverage`` imports ``repro.sizing.pruning`` and is therefore loaded
    last and forgivingly at first (the netlist package may still be
    mid-initialization when the structural group is first needed).
    """
    from . import hier, rules_family, rules_structural  # noqa: F401
    from .dataflow import monotone, phase  # noqa: F401
    from .symbolic import rules  # noqa: F401

    try:
        from . import coverage, rules_gp  # noqa: F401
        from .dataflow import interval  # noqa: F401
        from .electrical import rules as electrical_rules  # noqa: F401
        from .solution import rules as solution_rules  # noqa: F401
    except ImportError:  # pragma: no cover - partial-init during bootstrap
        pass
