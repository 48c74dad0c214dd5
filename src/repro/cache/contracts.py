"""Persistent store of macro interface contracts.

An interface contract (:mod:`repro.lint.contracts`) summarizes one macro's
boundary behavior — per-port phase/monotonicity facts, load/drive and
delay-slope intervals, funcspec equivalence status, slice-isomorphism
signature, plus the macro's own flat lint findings.  Contracts are
content-addressed by the v2 circuit fingerprint: a contract is valid for
*exactly* the netlist it was derived from, so reuse never needs a
timestamp or dirty bit — either the fingerprint matches and every fact
still holds, or it misses and the contract is re-derived.

A secondary index over the contract's *identity* (caller-chosen, e.g.
``"adder/static_ripple|w8"``) powers stale detection (rule CTR504): if an
identity resolves to contracts whose fingerprints all differ from the
instantiated circuit's, the macro was edited after characterization.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .store import JsonlArtifactStore

CONTRACT_STORE_FORMAT = "smart-contract-store/1"


class ContractStore:
    """Content-addressed contract artifacts over a JSONL backing file.

    Same single-writer discipline as :class:`~repro.cache.store.SizingCache`;
    ``path=None`` keeps contracts purely in memory (one hier-lint run still
    reuses a shared macro's contract across its instances).
    """

    def __init__(self, path: Optional[str] = None):
        self._store = JsonlArtifactStore(path, fmt=CONTRACT_STORE_FORMAT)
        self._by_identity: Dict[str, List[str]] = {}
        for entry in self._store.entries():
            self._index_identity(entry)

    def _index_identity(self, entry: dict) -> None:
        identity = entry.get("identity")
        if identity:
            keys = self._by_identity.setdefault(identity, [])
            if entry["key"] not in keys:
                keys.append(entry["key"])

    # -- lookups -----------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[dict]:
        """The contract derived from exactly this netlist, or None."""
        return self._store.get(fingerprint)

    def for_identity(self, identity: str) -> List[dict]:
        """Every stored contract claiming this identity (any fingerprint) —
        the raw material of CTR504 stale-contract detection."""
        return [
            entry
            for key in self._by_identity.get(identity, ())
            for entry in [self._store.get(key)]
            if entry is not None
        ]

    # -- writes ------------------------------------------------------------

    def put(self, contract: dict) -> dict:
        """Store a serialized contract under its circuit fingerprint."""
        fingerprint = contract.get("fingerprint")
        if not fingerprint:
            raise ValueError("contract has no 'fingerprint' field")
        entry = self._store.put(fingerprint, contract)
        self._index_identity(entry)
        return entry

    # -- introspection -----------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        return self._store.path

    @property
    def skipped_lines(self) -> int:
        return self._store.skipped_lines

    def entries(self) -> List[dict]:
        return self._store.entries()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._store

    def __repr__(self) -> str:
        backing = self.path or "<memory>"
        return f"ContractStore({backing!r}, contracts={len(self)})"
