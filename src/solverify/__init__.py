"""Conformance verifier for workflow policies over a core Solidity subset.

The pipeline: parse a policy document and contract sources, check syntactic
conformance, instrument the contract with transition assertions, translate to
a small verification IR, and discharge the assertions by contract-invariant
inference followed by transaction-bounded model checking against an SMT
solver process.
"""

__version__ = "0.1.0"


class InputError(Exception):
    """The input (a policy, a contract source, the command line) is at fault,
    not the verifier: `solverify verify` reports it and exits 3."""


def claim(spelling: str, taken: set[str]) -> str:
    """The one way a name is invented: `spelling`, else `<spelling>_<n>`
    for the least n >= 1 free in the namespace `taken`, which gains it."""
    name, n = spelling, 0
    while name in taken:
        n += 1
        name = f"{spelling}_{n}"
    taken.add(name)
    return name
