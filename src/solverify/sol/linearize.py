"""C3 linearization of contract inheritance.

The resolution order puts the contract itself first, respects each `is`
list's declaration order (local precedence), and is consistent with every
base's own linearization.  `parse_contract` computes it once per program
(`SolProgram.order`); member lookup (`SolProgram.resolve`) walks it and
takes the first match.
"""

from __future__ import annotations

from solverify import InputError
from solverify.sol.ast import SolProgram


class InheritanceCycle(InputError):
    pass


class AmbiguousLinearization(InputError):
    pass


def _c3_merge(seqs: list[list[str]], ctx: str) -> list[str]:
    result = []
    seqs = [list(s) for s in seqs if s]
    while seqs:
        for seq in seqs:
            head = seq[0]
            if not any(head in s[1:] for s in seqs):
                break
        else:
            raise AmbiguousLinearization(
                f"no valid C3 linearization for {ctx}")
        result.append(head)
        seqs = [[x for x in s if x != head] for s in seqs]
        seqs = [s for s in seqs if s]
    return result


def linearize(program: SolProgram) -> dict[str, list[str]]:
    """Per-contract resolution order (most-derived first)."""
    by_name = {c.name: c for c in program.contracts}
    order: dict[str, list[str]] = {}
    in_progress: set[str] = set()

    def lin(name: str) -> list[str]:
        if name in order:
            return order[name]
        if name in in_progress:
            raise InheritanceCycle(f"inheritance cycle through {name}")
        if name not in by_name:
            raise AmbiguousLinearization(f"unknown base contract {name}")
        in_progress.add(name)
        contract = by_name[name]
        base_lins = [lin(b) for b in contract.bases]
        merged = _c3_merge(base_lins + [list(contract.bases)], name)
        in_progress.discard(name)
        order[name] = [name] + merged
        return order[name]

    for c in program.contracts:
        lin(c.name)
    return order


def subtypes_of(program: SolProgram, contract: str) -> list[str]:
    """All contracts whose linearization contains `contract`, in declaration
    order (the closed-program set of possible dynamic types)."""
    return [c.name for c in program.contracts
            if contract in program.order[c.name]]
