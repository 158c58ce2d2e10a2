"""Verification IR: a small Boogie-like language with maps, havoc,
assume/assert, procedures, and instance and map allocation, and without
quantifiers or uninterpreted functions (a string literal is its interned
integer), plus a printer of its textual format (`printer`) and a reference
interpreter used as the replay oracle (`interp`), imported from their
modules where they are used.  The parser of the textual format, which only
checks that printed IR re-parses, is test code (`tests/vir_parser.py`).
The quantified allocation axioms live in the encoder (`engine.queries`)."""

from solverify.vir.ast import (  # noqa: F401
    INT, BOOL, REF, MapType,
    BConst, IConst, NamedConst, Op, RConst, Select, Var,
    Alloc, Assert, Assign, Assume, Call, Havoc, If, IrProcedure, IrProgram,
    Seq, Skip, Store, While,
)
from solverify.vir.prelude import emit_prelude  # noqa: F401
