import pytest

from conftest import alloc_smt, fresh_facts
from solverify.sol import ast as S
from solverify.sol import desugar_modifiers, parse_contract, typecheck
from solverify.translate import (
    TranslateError, Translation, generate_harness, map_type, translate_program,
)
from solverify.vir import ast as I
from solverify.vir.printer import print_expr


def tp(src: str) -> Translation:
    return translate_program(desugar_modifiers(typecheck(parse_contract(src))))


# -- type map ------------------------------------------------------------------

@pytest.mark.parametrize("sol_ty,ir_ty", [
    (S.INT, I.INT),
    (S.STRING, I.INT),
    (S.ADDRESS, I.REF),
    (S.ContractType("A"), I.REF),
    (S.MappingType(S.INT, S.MappingType(S.INT, S.INT)), I.REF),
    (S.BOOL, I.BOOL),
])
def test_map_type(sol_ty, ir_ty):
    assert map_type(sol_ty) == ir_ty


# -- expression rules -----------------------------------------------------------

def test_nested_lookup_golden():
    # x[0][1] with x: mapping(int => int[]) declared in C reads through the
    # per-type lookup maps at each level
    tr = tp("""
    contract C {
        mapping(int => int[]) x;
        function F() public { int y; y = x[0][1]; }
    }
    """)
    body = tr.ir.procedures["F_C"].body
    assign = [s for s in I.seq_list(body) if isinstance(s, I.Assign)][-1]
    assert print_expr(assign.expr) == "M_int_int[M_int_Ref[x_C[this]][0]][1]"


def test_local_variable_is_identity():
    tr = tp("contract C { function F(int y) public { int z; z = y; } }")
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert body[-1] == I.Assign("z", I.Var("y"))


def test_sender_and_state_var_composition():
    tr = tp("""
    contract C {
        address Requestor;
        function F() public { bool b; b = msg.sender == Requestor; }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert print_expr(body[-1].expr) == "msg_sender == Requestor_C[this]"


def test_string_literal_interned():
    tr = tp("""
    contract C {
        string m;
        function F() public { m = "hello"; m = "world"; m = "hello"; }
    }
    """)
    assert tr.interner == {"": 0, "hello": 1, "world": 2}
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert print_expr(body[0].value) == "1"
    assert print_expr(body[1].value) == "2"
    assert print_expr(body[2].value) == "1"


def test_source_args_spell_strings_by_inverting_the_interner():
    """A code is its literal; a code that no literal has is `#<code>`,
    claimed apart from the literals, so `#5` here is `#5_1`."""
    tr = tp("""
    contract C {
        string m;
        constructor(string s) public { m = "#5"; }
        function Set(string s, int n) public { m = s; }
    }
    """)
    assert tr.source_args("C", "Set", [1, 5]) == ["#5", 5]
    assert tr.source_args("C", "Set", [5, 1]) == ["#5_1", 1]
    assert tr.source_args("C", "C", [0]) == [""]
    assert tr.source_args("C", "C", [-2]) == ["#-2"]


# -- statement rules ----------------------------------------------------------------

def test_require_becomes_assume_assert_stays():
    tr = tp("""
    contract C {
        int x;
        function F() public { require(x == 1); assert(x == 1); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert isinstance(body[0], I.Assume)
    assert isinstance(body[1], I.Assert)


def test_nested_map_allocation_golden():
    """new (int => int => int)() lowers to one allocation statement, then the
    store; the encoder states the allocation sequence: fresh reference,
    length zeroing, inner-level freshness and distinctness around the
    unbounded allocation, leaf zero-init."""
    tr = tp("""
    contract C {
        mapping(int => mapping(int => int)) x;
        function F() public { x = new (int => mapping(int => int))(); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert body == [I.Alloc("tmp0", (I.INT, I.INT), I.INT),
                    I.Store("x_C", (I.Var("this"),), I.Var("tmp0"))]
    # line-for-line: aux!0 is the row M_int_Ref[tmp0], aux!1 the Alloc
    # that allocates tmp0, Alloc!8 the Alloc after the unbounded allocation
    assert alloc_smt(tr.ir, body[0]) == [
        "(define-fun aux!0 () (Array Int Ref) (select M_int_Ref!4 tmp0!7))",
        "(define-fun aux!1 () (Array Ref Bool) (store Alloc!0 tmp0!7 true))",
        "(assert (forall ((r0 Ref)) (not (select Alloc!0 r0))))",
        *fresh_facts("tmp0!7"),
        "(assert (=> true (= (select Length!1 tmp0!7) 0)))",
        "(assert (=> true (forall ((i1 Int)) (= (select Length!1 (select aux!0 i1)) 0))))",
        "(assert (=> true (forall ((i1 Int)) (not (select aux!1 (select aux!0 i1))))))",
        "(assert (=> true (forall ((i Ref)) (=> (select aux!1 i) (select Alloc!8 i)))))",
        "(assert (=> true (not (select Alloc!8 null))))",
        "(assert (=> true (forall ((i1 Int)) (select Alloc!8 (select aux!0 i1)))))",
        "(assert (=> true (forall ((i1 Int)) (forall ((i1_ Int)) "
        "(or (= i1 i1_) (not (= (select aux!0 i1) (select aux!0 i1_))))))))",
        "(assert (=> true (forall ((i1 Int)) (forall ((i2 Int)) "
        "(= (select (select M_int_int!3 (select aux!0 i1)) i2) 0)))))",
        "(assert false)"]


def test_new_array_sets_length_and_zeroes():
    tr = tp("""
    contract C {
        int[] a;
        function F(int n) public { a = new int[](n); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert body[0] == I.Alloc("tmp0", (I.INT,), I.INT, I.Var("n"))
    # the assert reads the stored length back
    length = I.Assert(I.op("==", I.select(I.Var("Length"), I.Var("tmp0")), I.Var("n")), "n")
    assert alloc_smt(tr.ir, body[0], length, params=[("n", I.INT)]) == [
        "(assert (forall ((r0 Ref)) (not (select Alloc!0 r0))))",
        *fresh_facts("tmp0!7"),
        "(assert (=> true (forall ((i1 Int)) (= (select (select M_int_int!3 tmp0!7) i1) 0))))",
        "(assert (= sel!0 (and true (not (= (select (store Length!1 tmp0!7 n!5) tmp0!7) n!5)))))",
        "(assert sel!0)"]
    assert isinstance(body[1], I.Store)


def test_push_desugars_to_length_indexed_store():
    tr = tp("""
    contract C {
        int[] a;
        function F() public { a.push(22); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert body[0] == I.Assign("len0", I.select(I.Var("Length"),
                                                I.select(I.Var("a_C"), I.Var("this"))))
    assert isinstance(body[1], I.Store) and body[1].base == "M_int_int"
    assert body[2].value == I.op("+", I.Var("len0"), I.IConst(1))


def test_empty_body_is_skip():
    tr = tp("contract C { function F() public { } }")
    assert tr.ir.procedures["F_C"].body == I.Skip()


def test_while_translates_structurally():
    tr = tp("""
    contract C {
        function F() public { int i; i = 0; while (i < 3) { i = i + 1; } }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert isinstance(body[-1], I.While)


def test_divisors_are_assumed_nonzero_where_evaluated():
    # a zero divisor reverts: assumed nonzero before the statement, under the
    # left operand of `||`, before a loop and at the end of its body; a
    # nonzero constant divisor needs no assumption
    tr = tp("""
    contract C {
        function F(int a, int b) public {
            int x = a % 2;
            require(b == 0 || 10 / b > a);
            while (a / b > x) { x = x + 1; }
        }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assumes = [print_expr(s.cond) for s in body if isinstance(s, I.Assume)]
    assert assumes == ["!(b == 0) ==> b != 0", "b == 0 || 10 / b > a", "b != 0"]
    loop = body[-1]
    assert isinstance(loop, I.While)
    assert print_expr(I.seq_list(loop.body)[-1].cond) == "b != 0"


# -- calls and dispatch ---------------------------------------------------------------

DISPATCH_SRC = """
contract A {
    function F() public returns (bool) { return false; }
}
contract B is A {
    function F() public returns (bool) { return true; }
}
contract C {
    A a;
    function G() public { bool y; y = a.F(); }
}
"""


def test_external_call_dispatches_on_dynamic_type():
    tr = tp(DISPATCH_SRC)
    body = I.seq_list(tr.ir.procedures["G_C"].body)
    dispatch = body[-1]
    assert isinstance(dispatch, I.If)
    # declaration order: A first, then B
    assert dispatch.cond == I.op("==", I.select(I.Var("DType"),
                                                I.select(I.Var("a_C"), I.Var("this"))),
                                 I.NamedConst("A"))
    first_call = [s for s in I.seq_list(dispatch.then) if isinstance(s, I.Call)][0]
    assert first_call.proc == "F_A"
    assert first_call.args[-1] == I.Var("this")  # sender becomes the caller
    second = dispatch.els
    assert isinstance(second, I.If)
    second_call = [s for s in I.seq_list(second.then) if isinstance(s, I.Call)][0]
    assert second_call.proc == "F_B"
    # closed program: trailing branch is unreachable
    assert second.els == I.Assume(I.BConst(False))


def test_internal_call_single_subtype_is_direct():
    tr = tp("""
    contract C {
        int x;
        function H() public { x = 1; }
        function G() public { H(); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["G_C"].body)
    assert body == [I.Call("H_C", (I.Var("this"), I.Var("msg_sender")))]


def test_internal_call_forwards_sender_across_subtypes():
    tr = tp("""
    contract A {
        int x;
        function H() public { x = 1; }
        function G() public { H(); }
    }
    contract B is A { }
    """)
    dispatch = I.seq_list(tr.ir.procedures["G_A"].body)[-1]
    assert isinstance(dispatch, I.If)
    for branch in (dispatch.then, dispatch.els.then):
        call = [s for s in I.seq_list(branch) if isinstance(s, I.Call)][0]
        assert call.args[-1] == I.Var("msg_sender")


def test_inherited_resolution_targets_root_procedure():
    # three-contract hierarchy where the middle contract inherits F: the
    # middle branch must call the root's procedure (resolution by hand: the
    # linearization of Mid is [Mid, Root], first F along it is Root's)
    tr = tp("""
    contract Root {
        function F() public { }
    }
    contract Mid is Root { }
    contract Leaf is Mid {
        function F() public { }
    }
    contract User {
        Root r;
        function G() public { r.F(); }
    }
    """)
    dispatch = I.seq_list(tr.ir.procedures["G_User"].body)[-1]
    targets = {}
    node = dispatch
    while isinstance(node, I.If):
        code = node.cond.args[1].name
        call = [s for s in I.seq_list(node.then) if isinstance(s, I.Call)][0]
        targets[code] = call.proc
        node = node.els
    assert targets == {"Root": "F_Root", "Mid": "F_Root", "Leaf": "F_Leaf"}


def test_new_contract_allocates_types_and_calls_ctor():
    tr = tp("""
    contract A { }
    contract C {
        A a;
        function F() public { a = new A(); }
    }
    """)
    body = I.seq_list(tr.ir.procedures["F_C"].body)
    assert body[0] == I.Alloc("tmp0", contract="A")
    allocated = I.Assert(I.select(I.Var("Alloc"), I.Var("tmp0")), "allocated")
    assert alloc_smt(tr.ir, body[0], allocated) == [
        "(assert (forall ((r0 Ref)) (not (select Alloc!0 r0))))",
        *fresh_facts("tmp0!5"),
        f"(assert (=> true (= (select DType!2 tmp0!5) {tr.ir.constants['A']})))",
        "(assert (= sel!0 (and true (not (select (store Alloc!0 tmp0!5 true) tmp0!5)))))",
        "(assert sel!0)"]
    assert body[1] == I.Call("A_Ctor", (I.Var("tmp0"), I.Var("this")))
    assert body[2] == I.Store("a_C", (I.Var("this"),), I.Var("tmp0"))


# -- program assembly --------------------------------------------------------------

def test_helloblockchain_program_shape(hb_source):
    tr = tp(hb_source)
    procs = set(tr.ir.procedures)
    assert {"HelloBlockchain_Ctor", "SendRequest_HelloBlockchain",
            "SendResponse_HelloBlockchain"} <= procs
    assert "New" not in procs  # an instance is allocated by `alloc`
    for var in ("State", "Requestor", "Responder", "RequestMessage",
                "ResponseMessage"):
        assert f"{var}_HelloBlockchain" in tr.ir.globals


def test_base_constructor_called_first():
    tr = tp("""
    contract A { int x; constructor() public { x = 1; } }
    contract B is A { constructor() public { x = 2; } }
    """)
    body = I.seq_list(tr.ir.procedures["B_Ctor"].body)
    assert body[0] == I.Call("A_Ctor", (I.Var("this"), I.Var("msg_sender")))


def test_empty_contract_ctor_only_initialization():
    tr = tp("contract A { int x; }")
    body = I.seq_list(tr.ir.procedures["A_Ctor"].body)
    assert body == [I.Store("x_A", (I.Var("this"),), I.IConst(0))]


def test_state_scalar_zero_init_order():
    tr = tp("""
    contract A {
        int n;
        address who;
        constructor() public { n = 5; }
    }
    """)
    body = I.seq_list(tr.ir.procedures["A_Ctor"].body)
    assert body[0] == I.Store("n_A", (I.Var("this"),), I.IConst(0))
    assert body[1] == I.Store("who_A", (I.Var("this"),), I.RConst(0))
    assert body[2] == I.Store("n_A", (I.Var("this"),), I.IConst(5))


def test_contract_codes_start_at_one():
    tr = tp("contract A { } contract B { }")
    assert tr.ir.constants == {"A": 1, "B": 2}


# -- IR scans: sender threading and map registry ----------------------------------------

def _all_calls(stmt, out):
    if isinstance(stmt, I.Call):
        out.append(stmt)
    elif isinstance(stmt, I.Seq):
        for s in stmt.stmts:
            _all_calls(s, out)
    elif isinstance(stmt, I.If):
        _all_calls(stmt.then, out)
        _all_calls(stmt.els, out)
    elif isinstance(stmt, I.While):
        _all_calls(stmt.body, out)


def test_sender_threading_scan():
    tr = tp(DISPATCH_SRC)
    for name, proc in tr.ir.procedures.items():
        calls = []
        _all_calls(proc.body, calls)
        for call in calls:
            callee = tr.ir.procedures.get(call.proc)
            if callee is None:
                continue
            sender = call.args[-1]
            assert sender in (I.Var("this"), I.Var("msg_sender")), (name, call)


def _all_selects(e, out):
    if isinstance(e, I.Select):
        out.append(e)
        _all_selects(e.base, out)
        for k in e.keys:
            _all_selects(k, out)
    elif isinstance(e, I.Op):
        for a in e.args:
            _all_selects(a, out)


def test_map_registry_closure():
    tr = tp(open("tests/fixtures/nested_maps.sol").read())

    def walk(stmt, out):
        for field in ("cond", "expr", "value"):
            v = getattr(stmt, field, None)
            if isinstance(v, I.IrExpr):
                _all_selects(v, out)
        if isinstance(stmt, I.Seq):
            for s in stmt.stmts:
                walk(s, out)
        elif isinstance(stmt, I.If):
            walk(stmt.then, out)
            walk(stmt.els, out)
        elif isinstance(stmt, I.While):
            walk(stmt.body, out)
        elif isinstance(stmt, I.Call):
            for a in stmt.args:
                _all_selects(a, out)
        elif isinstance(stmt, I.Store):
            for k in stmt.keys:
                _all_selects(k, out)
            _all_selects(stmt.value, out)

    for proc in tr.ir.procedures.values():
        selects = []
        walk(proc.body, selects)
        for sel in selects:
            if isinstance(sel.base, I.Var):
                assert sel.base.name in tr.ir.globals or \
                    proc.local_type(sel.base.name) is not None, sel


# -- harness ---------------------------------------------------------------------

def test_harness_two_functions_two_branches(hb_source):
    tr = tp(hb_source)
    hinfo = generate_harness(tr, "HelloBlockchain")
    assert [b[1] for b in hinfo.branches] == ["SendRequest", "SendResponse"]
    main = tr.ir.procedures["main"]
    stmts = I.seq_list(main.body)
    assert isinstance(stmts[-1], I.While)
    assert stmts[-1].cond == I.BConst(True)


def test_harness_ctor_only_degenerate():
    tr = tp("contract A { constructor() public { } }")
    hinfo = generate_harness(tr, "A")
    assert hinfo.branches == []
    main = tr.ir.procedures["main"]
    loop = I.seq_list(main.body)[-1]
    body = I.seq_list(loop.body)
    assert all(not isinstance(s, I.If) for s in body)


def test_harness_three_branches_declaration_order():
    tr = tp("""
    contract A {
        function F1() public { }
        function F2() public { }
        function F3() public { }
    }
    """)
    hinfo = generate_harness(tr, "A")
    assert [b[1] for b in hinfo.branches] == ["F1", "F2", "F3"]
    loop = I.seq_list(tr.ir.procedures["main"].body)[-1]
    node = [s for s in I.seq_list(loop.body) if isinstance(s, I.If)][0]
    order = []
    while isinstance(node, I.If):
        order.append(node.cond.name)
        node = node.els
    assert order == ["choice0", "choice1", "choice2"]


def test_harness_havocs_sender_each_iteration(hb_source):
    tr = tp(hb_source)
    hinfo = generate_harness(tr, "HelloBlockchain")
    loop = I.seq_list(tr.ir.procedures["main"].body)[-1]
    body = I.seq_list(loop.body)
    assert body[0] == I.Havoc("sender")


def test_unknown_root_rejected(hb_source):
    tr = tp(hb_source)
    with pytest.raises(TranslateError):
        generate_harness(tr, "Nope")


# -- contract constants are named apart from globals and locals ------------------------

_CONST_CLASHES = {
    # a contract named like the state map of another contract's variable
    "contract x_A": ("""
    contract A { int x; constructor() public { x = 1; } function F() public { assert(x == 1); } }
    contract x_A is A { constructor() public { } function G() public { x = 2; } }
    """, "x_A", "B"),
    # a contract named like a local of the harness
    "contract sender": ("""
    contract sender {
        int n;
        constructor() public { }
        function F(int v) public { n = v; assert(n != 3); }
    }
    """, "sender", "S"),
    # a local spelled like a contract, in a procedure that reads its code
    "local A": ("""
    contract A { constructor() public { } }
    contract C {
        A a;
        constructor() public { }
        function G(int A) public { a = new A(); assert(A != 4); }
    }
    """, "C", None),
}


@pytest.mark.parametrize("case", sorted(_CONST_CLASHES))
def test_contract_constants_reparse_and_keep_their_verdict(case):
    """`--emit-ir` text re-parses to the same program when a contract shares
    its spelling with a global or a local, and the verdict is the one the
    program gets with the contract renamed apart."""
    from solverify.engine.verify import verify
    from vir_parser import parse_ir
    from solverify.vir.printer import print_ir

    def run(src: str, root: str):
        tr = tp(src)
        hinfo = generate_harness(tr, root)
        assert parse_ir(print_ir(tr.ir)) == tr.ir
        return verify(tr, hinfo, k_max=2).verdict

    src, root, renamed = _CONST_CLASHES[case]
    verdict = run(src, root)
    assert verdict == "Refuted"
    if renamed is not None:
        assert run(src.replace(root, renamed), renamed) == verdict
