"""Frontend for the core Solidity subset: lexer, parser, typechecker,
inheritance linearizer, modifier desugarer, conformance checker, plus a
printer (`printer`), imported from its module where it is used.  The
conformance checker, which needs the policy module, loads on first use of
`check_syntactic_conformance`.  The source-level reference semantics the
tests compare the pipeline with is test code (`tests/sol_semantics.py`)."""

from solverify.sol.ast import (  # noqa: F401
    AddressType,
    BoolType,
    ContractType,
    IntType,
    MappingType,
    SolContract,
    SolFunction,
    SolProgram,
    StringType,
)
from solverify.sol.lexer import LexError  # noqa: F401
from solverify.sol.parser import ParseError, UnsupportedFeature, parse_contract  # noqa: F401
from solverify.sol.typecheck import DeepCopyUnsupported, TypeError_, typecheck  # noqa: F401
from solverify.sol.linearize import AmbiguousLinearization, InheritanceCycle  # noqa: F401
from solverify.sol.desugar import UnknownModifier, desugar_modifiers  # noqa: F401


def __getattr__(name: str):
    if name == "check_syntactic_conformance":
        from solverify.sol.conformance import check_syntactic_conformance
        return check_syntactic_conformance
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
