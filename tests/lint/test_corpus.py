"""The verification-corpus runner: its registry and its gate."""

import json

from repro.lint.corpus import GROUPS, Group, Mutant, main
from repro.lint.electrical.mutate import (
    floating_internal_node,
    overlong_pass_chain,
    undersized_keeper,
)
from repro.lint.registry import rules_in_groups


def _register(monkeypatch, clean=(), mutants=()):
    """Make ``clean`` and ``mutants`` the electrical group's whole corpus."""
    monkeypatch.setitem(
        GROUPS, "electrical", Group(lambda: clean, lambda: mutants)
    )


def test_registry_covers_the_verified_groups():
    assert sorted(GROUPS) == ["electrical", "solution", "symbolic"]
    assert list(GROUPS["symbolic"].mutants()) == []
    nsa = {r.id for r in rules_in_groups(("electrical",))}
    expected = [m.expected_rule for m in GROUPS["electrical"].mutants()]
    assert sorted(expected) == sorted(nsa)


def test_electrical_group_passes_the_gate(tmp_path):
    out = tmp_path / "electrical.json"
    assert main(["--group", "electrical", "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["clean_errors"] == 0
    assert len(payload["mutants"]) == 4
    for verdict in payload["mutants"]:
        assert verdict["flagged"] and not verdict["cross_fired"], verdict


def test_error_in_clean_corpus_fails_the_gate(monkeypatch, capsys):
    # A floating evaluate stack is an NSA601 error, not a clean case.
    _register(monkeypatch, clean=[
        ("floating", floating_internal_node(), {}, None),
    ])
    assert main(["--group", "electrical"]) == 1
    assert "FAIL clean  floating" in capsys.readouterr().out


def test_unflagged_mutant_fails_the_gate(monkeypatch, capsys):
    # A two-gate pass chain is within budget: NSA603 never fires.
    short_chain = overlong_pass_chain(length=2)
    _register(monkeypatch, mutants=[
        Mutant("short_chain", short_chain, {}, "NSA603"),
    ])
    assert main(["--group", "electrical"]) == 1
    assert "FAIL mutant short_chain" in capsys.readouterr().out


def test_cross_firing_mutant_fails_the_gate(monkeypatch, tmp_path):
    circuit = undersized_keeper()
    circuit.net("out").wire_cap = 120.0  # now also a coupling victim
    _register(monkeypatch, mutants=[
        Mutant("two_defects", circuit, {}, "NSA602"),
    ])
    out = tmp_path / "electrical.json"
    assert main(["--group", "electrical", "--json-out", str(out)]) == 1
    [verdict] = json.loads(out.read_text())["mutants"]
    assert verdict["flagged"]
    assert verdict["cross_fired"] == ["NSA604"]


def test_certs_file_exists_when_no_certificate_is_issued(
    monkeypatch, tmp_path
):
    _register(monkeypatch)
    certs = tmp_path / "certs.jsonl"
    assert main(["--group", "electrical", "--certs", str(certs)]) == 0
    assert certs.read_text() == ""
