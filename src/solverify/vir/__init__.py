"""Verification IR: a small Boogie-like language with maps, havoc,
assume/assert, procedures, and instance and map allocation, plus a textual
format (`printer`, `parser`) and a reference interpreter used as the replay
oracle (`interp`), imported from their modules where they are used."""

from solverify.vir.ast import (  # noqa: F401
    INT, BOOL, REF, MapType,
    BConst, Forall, IConst, NamedConst, Op, RConst, Select, UFApply, Var,
    Alloc, Assert, Assign, Assume, Call, Havoc, If, IrProcedure, IrProgram,
    Seq, Skip, Store, While,
)
from solverify.vir.prelude import emit_prelude  # noqa: F401
