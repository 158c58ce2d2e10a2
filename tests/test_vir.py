import copy

import pytest

from solverify.vir.ast import (
    BOOL, INT, REF, Alloc, Assert, Assign, Assume, BConst, Call, Forall, Havoc,
    IConst, If, IrProcedure, IrProgram, MapType, NamedConst, RConst, Skip, Store,
    Var, While, children, iter_stmt, map_stmt, op, select, seq,
)
from solverify.vir.interp import (
    AssertFailed, Blocked, BudgetExhausted, Completed, UnsupportedQuantifier,
    interpret,
)
from solverify.sol import parse_contract, typecheck
from solverify.translate import translate_program
from solverify.vir.parser import parse_ir
from solverify.vir.prelude import (
    ALLOC, LENGTH, alloc_facts, emit_prelude, lookup_map_name,
)
from solverify.vir.printer import print_ir


def prelude_with(*sigs):
    return emit_prelude(list(sigs))


def _nested_map_program(depth: int = 2):
    """`F_C` allocates a `depth`-level map and stores it in the state variable."""
    ty = "int"
    for _ in range(depth):
        ty = f"mapping(int => {ty})"
    return translate_program(typecheck(parse_contract(f"""
    contract C {{
        {ty} x;
        function F() public {{ x = new {ty[len("mapping"):]}(); }}
    }}
    """)))


# -- prelude shape -----------------------------------------------------------------

def test_instance_alloc_facts():
    x = Var("x")
    assert list(alloc_facts(Alloc("x", contract="C"))) == [
        Havoc("x"), Assume(op("!", select(Var(ALLOC), x))), Assume(op("!=", x, RConst(0))),
        Store(ALLOC, (x,), BConst(True)),
        Assume(op("==", select(Var("DType"), x), NamedConst("C")))]


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
    assert program.procedures == {}  # an `alloc` statement allocates


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
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [], Assume(
        Forall("i1", INT, op("==", select(Var(LENGTH), Var("r")), Var("i1"))))))
    text = print_ir(program)
    assert "(forall i1: int ::" in text
    assert parse_ir(text) == program


def test_round_trip_with_all_statement_kinds():
    program = emit_prelude()
    body = seq(
        Skip(),
        Havoc("x"),
        Assign("x", op("+", Var("x"), IConst(1))),
        Store("m", (Var("x"),), IConst(3)),
        Assume(op("<", Var("x"), IConst(10))),
        Assert(op(">=", Var("x"), IConst(0)), "label with \"quotes\""),
        Call("g", (Var("x"),), ("r",)),
        Alloc("r", contract="C"),
        If(op("==", Var("x"), IConst(1)), Assign("x", IConst(2)), Skip()),
        While(op("<", Var("x"), IConst(5)), Assign("x", op("+", Var("x"), IConst(1)))),
        Alloc("r", (INT, REF), BOOL),
        Alloc("r", (INT,), INT, op("+", Var("x"), IConst(1))),
        Assign("alloc", Var("x")),  # a variable spelled like the keyword
    )
    program.globals["m"] = MapType(INT, INT)
    program.constants["C"] = 1
    program.add_proc(IrProcedure("t", [], [], [("x", INT), ("r", REF), ("alloc", INT)],
                                 body))
    text = print_ir(program)
    assert "alloc r: C;" in text
    assert "alloc r: [int][Ref]bool;" in text and "alloc r: [int]int length x + 1;" in text
    assert print_ir(parse_ir(text)) == text and parse_ir(text) == program


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
    program.constants["C"] = 1
    body = seq(
        Alloc("a", contract="C"),
        Alloc("b", contract="C"),
        Assert(op("!=", Var("a"), Var("b")), "distinct"),
        Assert(select(Var(ALLOC), Var("a")), "a allocated"),
        Assert(select(Var(ALLOC), Var("b")), "b allocated"),
        Assert(op("==", select(Var("DType"), Var("a")), NamedConst("C")), "a typed"),
    )
    program.add_proc(IrProcedure("t", [], [], [("a", REF), ("b", REF)], body))
    assert isinstance(interpret(program, "t"), Completed)


def test_new_freshness_no_duplicates():
    program = emit_prelude()
    program.constants["C"] = 1
    locals_ = [(f"r{i}", REF) for i in range(6)]
    body = [Alloc(f"r{i}", contract="C") for i in range(6)]
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
        Alloc("c", contract="C"),
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


def test_depth_three_allocation_gives_distinct_inner_refs_at_every_level():
    """The level-2 maps under two level-1 maps are distinct, allocated and
    empty; they used to read null, so every m[i][j] aliased."""
    tr = _nested_map_program(depth=3)
    level1 = [select(Var("M_int_Ref"), Var("v"), IConst(k)) for k in (0, 1)]
    body = seq(
        Alloc("c", contract="C"),
        Call("F_C", (Var("c"), Var("c"))),
        Assign("v", select(Var("x_C"), Var("c"))),
        Assign("p", select(Var("M_int_Ref"), level1[0], IConst(0))),
        Assign("q", select(Var("M_int_Ref"), level1[1], IConst(0))),
        Assert(op("!=", Var("p"), Var("q")), "distinct"),
        Assert(op("!=", Var("p"), level1[0]), "not the level-1 map"),
        *[stmt for r in ("p", "q") for stmt in (
            Assert(select(Var(ALLOC), Var(r)), f"{r} allocated"),
            Assert(op("==", select(Var(LENGTH), Var(r)), IConst(0)), f"{r} length"),
            Assert(op("==", select(Var("M_int_int"), Var(r), IConst(5)), IConst(0)),
                   f"{r} leaf zeroed"))],
    )
    tr.ir.add_proc(IrProcedure("t", [], [], [("c", REF), ("v", REF), ("p", REF),
                                             ("q", REF)], body))
    assert isinstance(interpret(tr.ir, "t"), Completed)


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
    callee's where the call runs), and other havocs still read the tape, a
    Ref havoc among them.  The entry procedure need not belong to the
    program."""
    program = emit_prelude()
    program.add_proc(IrProcedure("u", [], [], [("c", INT)], Havoc("c")))
    entry = IrProcedure("t", [], [], [("a", INT), ("b", BOOL), ("d", INT),
                                      ("r", REF), ("s", REF)], seq(
        If(BConst(False), Havoc("b"), Skip()),
        Havoc("a"),
        Call("u", (), ()),
        Havoc("d"),
        Havoc("b"),
        Havoc("r"),
        Havoc("s"),
        Assume(op("==", Var("r"), RConst(10005))),
        Assume(op("==", Var("s"), RConst(6))),
        Assert(op("!=", op("+", Var("a"), Var("d")), IConst(12)), "a + d != 12")))
    out = interpret(program, entry, tape=[5, 6],
                    inputs={"a": 7, "b": True, "c": 3, "r": 10005})
    assert isinstance(out, AssertFailed) and out.label == "a + d != 12"
    assert out.state.inputs_taken == [("a", 7), ("c", 3), ("b", True), ("r", 10005)]
    assert "t" not in program.procedures


def test_strict_tape_exhaustion():
    from solverify.vir.interp import TapeExhausted
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [("b", BOOL)], Havoc("b")))
    with pytest.raises(TapeExhausted):
        interpret(program, "t", tape=[], strict_tape=True)


# -- allocation: the interpreter executes what the encoder states ------------------

# Two distinct values of each key type, fed to the havocs of the keys.
_KEY_VALUES = {INT: (0, 1), BOOL: (False, True), REF: (101, 102)}
_ZERO = {INT: IConst(0), BOOL: BConst(False), REF: RConst(0)}


def _alloc_guarantees(keys, leaf, length):
    """(label, condition) for each guarantee of `alloc x`, over the key
    variables a<j> and b<j> of level j: x allocated, non-null and distinct
    from the earlier allocation e.  An instance (no keys; `leaf` names its
    contract) has its contract as dynamic type.  A map has its length, each
    inner reference along the a-keys allocated, non-null and distinct from
    its b-key sibling in the row, and the leaf along the a-keys zero."""
    x = Var("x")
    out = [("allocated", select(Var(ALLOC), x)),
           ("non-null", op("!=", x, RConst(0))),
           ("distinct from an earlier allocation", op("!=", x, Var("e")))]
    if not keys:
        return out + [("dynamic type", op("==", select(Var("DType"), x), NamedConst(leaf)))]
    out.append(("length", op("==", select(Var(LENGTH), x), length or IConst(0))))
    cur = x
    for j, key_ty in enumerate(keys, 1):
        value_ty = leaf if j == len(keys) else REF
        lookup = Var(lookup_map_name(key_ty, value_ty))
        sibling = select(lookup, cur, Var(f"b{j}"))
        cur = select(lookup, cur, Var(f"a{j}"))
        if j < len(keys):
            out += [(f"level {j} allocated", select(Var(ALLOC), cur)),
                    (f"level {j} non-null", op("!=", cur, RConst(0))),
                    (f"level {j} distinct in its row", op("!=", cur, sibling))]
    return out + [("leaf zero", op("==", cur, _ZERO[leaf]))]


@pytest.mark.parametrize("keys,leaf,length", [
    ((INT,), INT, None), ((REF,), BOOL, None), ((BOOL,), REF, None),
    ((INT,), INT, IConst(7)),
    ((INT, REF), BOOL, None), ((REF, BOOL), INT, None), ((BOOL, INT), REF, IConst(2)),
    ((INT, INT, INT), INT, None), ((REF, BOOL, INT), BOOL, None),
    ((BOOL, REF, REF), REF, None),
    ((), "C", None), ((), "D", None),
])
def test_encoder_and_interpreter_agree_on_allocation(keys, leaf, length):
    """Each guarantee of `alloc x` (an instance of a contract, or a map that
    the interpreter mints), asserted on its own after an earlier `alloc e:
    C`, passes in `interpret` and is unsat to violate under `vc_gen`."""
    from solverify.engine.queries import vc_gen
    from solverify.engine.smtio import SolverConfig, check_smt
    program = emit_prelude([(keys, leaf)] if keys else [])
    program.constants.update(C=1, D=2)
    alloc = Alloc("x", keys, leaf, length) if keys else Alloc("x", contract=leaf)
    key_vars = [(f"{side}{j}", ty) for j, ty in enumerate(keys, 1) for side in "ab"]
    inputs = {f"{side}{j}": _KEY_VALUES[ty][side == "b"]
              for j, ty in enumerate(keys, 1) for side in "ab"}
    setup = [Alloc("e", contract="C")] + [Havoc(name) for name, _ in key_vars] + [
        Assume(op("!=", Var(f"a{j}"), Var(f"b{j}"))) for j in range(1, len(keys) + 1)]
    for label, cond in _alloc_guarantees(keys, leaf, length):
        proc = IrProcedure("t", [], [], [("x", REF), ("e", REF)] + key_vars, seq(
            *setup, alloc, Assert(cond, label)))
        assert isinstance(interpret(program, proc, inputs=inputs), Completed), label
        _, query = vc_gen(program, proc)
        assert check_smt(query, SolverConfig(timeout=60)).status == "unsat", label


def _fixture_programs():
    """(name, translation, root) of every fixture, instrumented where it has
    a policy, else checked for its assertions."""
    from conftest import fixture_text
    from solverify.instrument import instrument_for_conformance
    from solverify.policy import parse_policy
    from solverify.sol import desugar_modifiers
    for sol, policy, root in [
            ("helloblockchain", "helloblockchain", "HelloBlockchain"),
            ("digitallocker_buggy", "digitallocker", "DigitalLocker"),
            ("bazaar_buggy", "bazaar", "Bazaar"),
            ("assettransfer_fixed", "assettransfer", "AssetTransfer"),
            ("assettransfer_buggy", "assettransfer", "AssetTransfer"),
            ("nested_maps", None, "C"), ("poa_validators", None, "Validators"),
            ("counter", None, "Counter")]:
        program = desugar_modifiers(typecheck(parse_contract(fixture_text(f"{sol}.sol"))))
        if policy is not None:
            program = desugar_modifiers(instrument_for_conformance(
                program, parse_policy(fixture_text(f"{policy}.json"))))
        yield sol, translate_program(program), root


def _foralls_in(stmt) -> list:
    found = []

    def visit(e):
        stack = [e]
        while stack:
            x = stack.pop()
            if isinstance(x, Forall):
                found.append(x)
            stack.extend(children(x))
        return e

    map_stmt(stmt, expr=visit)
    return found


def test_no_quantifier_reaches_the_interpreter():
    """The translated procedures of every fixture, and their harness unrolled
    to k = 2, hold no forall: allocation is one statement."""
    from solverify.engine.unroll import unroll_harness
    from solverify.translate import generate_harness
    for name, tr, root in _fixture_programs():
        generate_harness(tr, root)
        unrolled = unroll_harness(tr.ir, tr.ir.procedures["main"], 2)
        for proc in [*tr.ir.procedures.values(), unrolled]:
            assert _foralls_in(proc.body) == [], (name, proc.name)


def test_forall_under_assume_unsupported():
    program = emit_prelude()
    program.add_proc(IrProcedure("t", [], [], [], Assume(
        Forall("r", REF, op("!", select(Var(ALLOC), Var("r")))))))
    with pytest.raises(UnsupportedQuantifier):
        interpret(program, "t")


def test_fixture_ir_reparses():
    from solverify.translate import generate_harness
    for name, tr, root in _fixture_programs():
        generate_harness(tr, root)
        assert parse_ir(print_ir(tr.ir)) == tr.ir, name
