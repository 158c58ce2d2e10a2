import copy

import pytest

from solverify.vir.ast import (
    BOOL, INT, REF, Assert, Assign, Assume, BConst, Call, Forall, Havoc,
    IConst, If, IrProcedure, IrProgram, MapType, RConst, Skip, Store, Var,
    While, iter_stmt, op, select, seq,
)
from solverify.vir.interp import (
    AssertFailed, Blocked, BudgetExhausted, Completed, UnsupportedQuantifier,
    interpret,
)
from solverify.sol import parse_contract, typecheck
from solverify.translate import translate_program
from solverify.vir.parser import parse_ir
from solverify.vir.prelude import ALLOC, LENGTH, emit_prelude
from solverify.vir.printer import print_ir


def prelude_with(*sigs):
    return emit_prelude(list(sigs))


def _nested_map_program():
    """`F_C` allocates a two-level map and stores it in the state variable."""
    return translate_program(typecheck(parse_contract("""
    contract C {
        mapping(int => mapping(int => int)) x;
        function F() public { x = new (int => mapping(int => int))(); }
    }
    """)))


# -- prelude shape -----------------------------------------------------------------

def test_prelude_new_body():
    program = emit_prelude()
    new = program.procedures["New"]
    stmts = new.body.stmts
    assert isinstance(stmts[0], Havoc)
    assert isinstance(stmts[1], Assume)
    assert stmts[1].cond == op("!", select(Var(ALLOC), Var("ret")))
    assert stmts[2] == Store(ALLOC, (Var("ret"),), BConst(True))


def test_prelude_globals_and_uf():
    program = emit_prelude()
    assert program.globals[ALLOC] == MapType(REF, BOOL)
    assert program.globals[LENGTH] == MapType(REF, INT)
    assert program.globals["DType"] == MapType(REF, INT)
    assert "StrToInt" in program.ufs


def test_prelude_declares_a_lookup_map_per_level():
    program = prelude_with(((INT, INT), BOOL), ((REF,), INT))
    assert program.globals["M_int_Ref"] == MapType(REF, MapType(INT, REF))
    assert program.globals["M_int_bool"] == MapType(REF, MapType(INT, BOOL))
    assert program.globals["M_Ref_int"] == MapType(REF, MapType(REF, INT))
    assert set(program.procedures) == {"New", "NewUnbounded"}


# -- printer / parser ----------------------------------------------------------------

def test_print_deterministic():
    a = print_ir(prelude_with(((INT, INT), INT)))
    b = print_ir(prelude_with(((INT, INT), INT)))
    assert a == b


def test_print_parse_round_trip():
    program = prelude_with(((INT,), INT), ((INT, INT), INT))
    text = print_ir(program)
    again = parse_ir(text)
    assert print_ir(again) == text
    assert again.globals == program.globals
    assert set(again.procedures) == set(program.procedures)


def test_forall_prints_bound_type():
    text = print_ir(_nested_map_program().ir)
    assert "(forall i1: int ::" in text


def test_round_trip_with_all_statement_kinds():
    program = emit_prelude()
    body = seq(
        Skip(),
        Havoc("x"),
        Assign("x", op("+", Var("x"), IConst(1))),
        Store("m", (Var("x"),), IConst(3)),
        Assume(op("<", Var("x"), IConst(10))),
        Assert(op(">=", Var("x"), IConst(0)), "label with \"quotes\""),
        Call("New", (), ("r",)),
        If(op("==", Var("x"), IConst(1)), Assign("x", IConst(2)), Skip()),
        While(op("<", Var("x"), IConst(5)), Assign("x", op("+", Var("x"), IConst(1)))),
    )
    program.globals["m"] = MapType(INT, INT)
    program.add_proc(IrProcedure("t", [], [], [("x", INT), ("r", REF)], body))
    text = print_ir(program)
    assert print_ir(parse_ir(text)) == text


def test_iter_stmt_visits_nested_bodies_in_source_order():
    body = seq(Havoc("a"),
               If(Var("c"), seq(Havoc("b"), While(Var("c"), Havoc("d"))), Havoc("e")),
               Havoc("f"))
    assert [s.var for s in iter_stmt(body) if isinstance(s, Havoc)] == \
        ["a", "b", "d", "e", "f"]


# -- records -----------------------------------------------------------------------

def test_frozen_nodes_compare_and_hash_by_their_fields():
    a, b = op("+", Var("x"), IConst(1)), op("+", Var("x"), IConst(1))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, op("+", Var("x"), IConst(2))}) == 2
    assert IConst(1) != RConst(1)  # equal fields, another class
    assert Assert(BConst(True)) == Assert(BConst(True), "")  # the default


def test_assigning_to_a_frozen_node_raises():
    e = IConst(1)
    with pytest.raises(AttributeError):
        e.value = 2
    with pytest.raises(AttributeError):
        del e.value
    assert e.value == 1


def test_mutable_records_are_unhashable_and_own_their_containers():
    p, q = IrProgram(), IrProgram()
    assert p == q
    with pytest.raises(TypeError):
        hash(p)
    p.globals["g"] = INT
    assert q.globals == {} and p != q


def test_record_repr_names_each_field():
    assert repr(Assign("x", IConst(1))) == "Assign(var='x', expr=IConst(value=1))"
    assert repr(MapType(INT, BOOL)) == "MapType(key=IntT(), value=BoolT())"


def test_deepcopy_of_an_ir_expression_round_trips():
    e = Forall("r", REF, op("==>", select(Var("alloc"), Var("r")), BConst(True)))
    c = copy.deepcopy(e)
    assert c == e and c is not e and c.body is not e.body
    with pytest.raises(AttributeError):
        c.var = "s"


# -- interpreter ------------------------------------------------------------------

def test_assert_false_fails():
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [], Assert(BConst(False), "boom")))
    out = interpret(program, "t")
    assert isinstance(out, AssertFailed)
    assert out.label == "boom"


def test_assume_false_blocks():
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [],
                                 seq(Assume(BConst(False)), Assert(BConst(False)))))
    assert isinstance(interpret(program, "t"), Blocked)


def test_new_twice_distinct_and_allocated():
    program = emit_prelude()
    body = seq(
        Call("New", (), ("a",)),
        Call("New", (), ("b",)),
        Assert(op("!=", Var("a"), Var("b")), "distinct"),
        Assert(select(Var(ALLOC), Var("a")), "a allocated"),
        Assert(select(Var(ALLOC), Var("b")), "b allocated"),
    )
    program.add_proc(IrProcedure("t", [], [], [("a", REF), ("b", REF)], body))
    assert isinstance(interpret(program, "t"), Completed)


def test_new_freshness_no_duplicates():
    program = emit_prelude()
    locals_ = [(f"r{i}", REF) for i in range(6)]
    body = [Call("New", (), (f"r{i}",)) for i in range(6)]
    program.add_proc(IrProcedure("t", [], [], locals_, seq(*body)))
    out = interpret(program, "t")
    assert isinstance(out, Completed)
    # every returned ref is distinct and marked allocated
    refs = set()
    alloc = out.state.globals[ALLOC]
    for i in range(1, out.state.alloc_counter + 1):
        assert i not in refs
        refs.add(i)
        assert alloc.entries.get(i, False) or i > out.state.alloc_counter


def test_nested_map_allocation_gives_distinct_inner_refs():
    tr = _nested_map_program()
    body = seq(
        Call("New", (), ("c",)),
        Call("F_C", (Var("c"), Var("c"))),
        Assign("v", select(Var("x_C"), Var("c"))),
        Assign("r0", select(Var("M_int_Ref"), Var("v"), IConst(0))),
        Assign("r1", select(Var("M_int_Ref"), Var("v"), IConst(1))),
        Assign("r2", select(Var("M_int_Ref"), Var("v"), IConst(2))),
        Assert(op("!=", Var("r0"), Var("r1")), "01"),
        Assert(op("!=", Var("r1"), Var("r2")), "12"),
        Assert(op("!=", Var("r0"), Var("r2")), "02"),
        Assert(op("!=", Var("r0"), Var("v")), "not the outer map"),
        Assert(select(Var(ALLOC), Var("r0")), "allocated"),
        Assert(op("==", select(Var(LENGTH), Var("r0")), IConst(0)), "len"),
        Assert(op("==", select(Var("M_int_int"), Var("r1"), IConst(5)), IConst(0)),
               "leaf zeroed"),
    )
    tr.ir.add_proc(IrProcedure("t", [], [], [
        ("c", REF), ("v", REF), ("r0", REF), ("r1", REF), ("r2", REF)], body))
    out = interpret(tr.ir, "t")
    assert isinstance(out, Completed)


def test_budget_exhausted():
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [("x", INT)],
                                 While(BConst(True), Assign("x", op("+", Var("x"), IConst(1))))))
    assert isinstance(interpret(program, "t", budget=500), BudgetExhausted)


def test_tape_drives_bool_havoc():
    program = emit_prelude()
    body = seq(Havoc("b"), If(Var("b"), Assert(BConst(False), "on true"), Skip()))
    program.add_proc(IrProcedure("t", [], [], [("b", BOOL)], body))
    assert isinstance(interpret(program, "t", tape=[1]), AssertFailed)
    assert isinstance(interpret(program, "t", tape=[0]), Completed)


def test_forall_under_assert_unsupported():
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [], Assert(
        Forall("i", INT, op("==", Var("i"), Var("i"))))))
    with pytest.raises(UnsupportedQuantifier):
        interpret(program, "t")


def test_assume_replacing_assert_never_turns_completed_into_failed():
    """Swapping an assert for an assume can only block, never fail."""
    program = emit_prelude()
    cond = op("==", Var("x"), IConst(1))
    for value, original in ((1, Completed), (2, AssertFailed)):
        p1 = IrProcedure("a", [], [], [("x", INT)],
                         seq(Assign("x", IConst(value)), Assert(cond, "c")))
        p2 = IrProcedure("b", [], [], [("x", INT)],
                         seq(Assign("x", IConst(value)), Assume(cond)))
        program.procedures["a"] = p1
        program.procedures["b"] = p2
        out1 = interpret(program, "a")
        out2 = interpret(program, "b")
        assert isinstance(out1, original)
        assert not isinstance(out2, AssertFailed)


def test_map_value_semantics_on_assign():
    # maps copy on assignment: mutating the original afterwards must not
    # affect the snapshot
    program = emit_prelude()
    program.globals["m"] = MapType(INT, INT)
    body = seq(
        Store("m", (IConst(0),), IConst(5)),
        Assign("snap", Var("m")),
        Store("m", (IConst(0),), IConst(9)),
        Assert(op("==", select(Var("snap"), IConst(0)), IConst(5)), "snapshot"),
        Assert(op("==", select(Var("m"), IConst(0)), IConst(9)), "current"),
    )
    program.add_proc(IrProcedure("t", [], [], [("snap", MapType(INT, INT))], body))
    assert isinstance(interpret(program, "t"), Completed)


def test_named_inputs_take_their_values_in_execution_order():
    """A havoc of a variable named in `inputs` takes that value; the run
    records those havocs as they execute (a skipped branch's not at all, a
    callee's where the call runs), and other havocs still read the tape.
    The entry procedure need not belong to the program."""
    program = emit_prelude()
    program.add_proc(IrProcedure("u", [], [], [("c", INT)], Havoc("c")))
    entry = IrProcedure("t", [], [], [("a", INT), ("b", BOOL), ("d", INT)], seq(
        If(BConst(False), Havoc("b"), Skip()),
        Havoc("a"),
        Call("u", (), ()),
        Havoc("d"),
        Havoc("b"),
        Assert(op("!=", op("+", Var("a"), Var("d")), IConst(12)), "a + d != 12")))
    out = interpret(program, entry, tape=[5], inputs={"a": 7, "b": True, "c": 3})
    assert isinstance(out, AssertFailed) and out.label == "a + d != 12"
    assert out.state.inputs_taken == [("a", 7), ("c", 3), ("b", True)]
    assert "t" not in program.procedures


def test_strict_tape_exhaustion():
    from solverify.vir.interp import TapeExhausted
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [("b", BOOL)], Havoc("b")))
    with pytest.raises(TapeExhausted):
        interpret(program, "t", tape=[], strict_tape=True)
