import copy

import pytest

from solverify.policy import parse_policy
from solverify.sol import ast
from solverify.sol.conformance import check_syntactic_conformance
from solverify.sol.desugar import desugar_modifiers
from solverify.sol.linearize import AmbiguousLinearization, InheritanceCycle
from solverify.sol.parser import ParseError, UnsupportedFeature, parse_contract
from solverify.sol.printer import print_program
from solverify.sol.typecheck import DeepCopyUnsupported, TypeError_, typecheck


# -- parsing ------------------------------------------------------------------

def test_parse_helloblockchain(hb_source):
    program = parse_contract(hb_source)
    assert len(program.contracts) == 1
    c = program.contracts[0]
    assert c.name == "HelloBlockchain"
    assert [n for n, _ in c.state_vars] == [
        "State", "Requestor", "Responder", "RequestMessage", "ResponseMessage"]
    assert c.enums == {"StateType": ["Request", "Respond"]}
    assert c.constructor is not None and c.constructor.params[0][0] == "message"
    assert [f.name for f in c.functions] == ["SendRequest", "SendResponse"]


def test_empty_contract_gets_implicit_constructor():
    program = parse_contract("contract A { }")
    c = program.contracts[0]
    assert c.constructor is not None
    assert c.constructor.params == []
    assert c.constructor.body == []


def test_selfdestruct_rejected():
    with pytest.raises(UnsupportedFeature):
        parse_contract("contract A { function F() public { selfdestruct(x); } }")


@pytest.mark.parametrize("snippet", [
    "contract A { function F() public payable { } }",
    "contract A { event E(); }",
    "struct S { int x; }",
    "library L { }",
])
def test_unsupported_constructs_rejected(snippet):
    with pytest.raises(UnsupportedFeature):
        parse_contract(snippet)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_contract("contract A { function F() public { x = ; } }")
    assert err.value.line >= 1


def test_modifier_requires_placeholder():
    with pytest.raises(ParseError):
        parse_contract("contract A { modifier M() { int x; } }")


def test_declaration_initialized_by_new_splits_in_two():
    program = parse_contract("""
    contract B { }
    contract A {
        function F(bool c) public {
            B b = new B();
            if (c) B d = new B();
        }
    }
    """)
    body = program.contract("A").function("F").body
    for stmts in (body[:2], body[2].then):
        assert [type(s) for s in stmts] == [ast.DeclStmt, ast.NewContract]
        assert stmts[0].init is None and stmts[1].target.name == stmts[0].name


def test_call_in_modifier_expression_rejected():
    with pytest.raises(ParseError, match="calls are statements"):
        parse_contract("contract A { B b; modifier M() { _; require(b.ok()); } }")


def test_bodies_reach_functions_constructor_and_modifiers():
    program = parse_contract("""
    contract A {
        int x;
        modifier M() { x = 1; _; x = 2; }
        constructor() public { x = 3; }
        function F() public M() { x = 4; if (x > 0) { x = 5; } }
    }
    """)
    stored = [s.rhs.value for body in ast.bodies(program)
              for s in ast.walk(body) if isinstance(s, ast.Assign)]
    assert stored == [4, 5, 3, 1, 2]


def test_parse_print_round_trip(hb_source):
    one = parse_contract(hb_source)
    two = parse_contract(print_program(one))
    assert two == one


def test_parse_print_round_trip_nested():
    src = open("tests/fixtures/nested_maps.sol").read()
    one = parse_contract(src)
    assert parse_contract(print_program(one)) == one


# -- records -----------------------------------------------------------------------

def test_source_nodes_compare_structurally_and_hash_by_identity():
    a, b = ast.IntLit(1, pos=(1, 1)), ast.IntLit(1, pos=(2, 5))
    a.ty = ast.INT
    assert a == b  # positions and annotations are not compared
    assert len({a, b}) == 2 and {a: 0}[a] == 0
    assert ast.IntLit(1) != ast.BoolLit(1)


def test_is_array_is_not_part_of_a_mapping_types_identity():
    arr, plain = ast.MappingType(ast.INT, ast.BOOL, is_array=True), \
        ast.MappingType(ast.INT, ast.BOOL)
    assert arr == plain and hash(arr) == hash(plain)
    assert repr(arr) == "MappingType(key=IntType(), value=BoolType(), is_array=True)"


def test_default_factory_gives_each_node_its_own_list():
    f, g = ast.SolFunction("f", [], []), ast.SolFunction("g", [], [])
    f.applied_modifiers.append("m")
    assert g.applied_modifiers == []


def test_deepcopy_and_copy_tree_of_a_contract_round_trip(hb_source):
    program = parse_contract(hb_source)
    typecheck(program)
    for dup in (copy.deepcopy(program), ast.copy_tree(program)):
        assert dup == program and print_program(dup) == print_program(program)
        c, d = program.contracts[0], dup.contracts[0]
        assert d is not c and d.functions[0].body[0] is not c.functions[0].body[0]
        assert d.functions[0].body[0].pos == c.functions[0].body[0].pos


def test_copy_tree_follows_deep_expressions_without_recursion():
    e = ast.IntLit(0)
    for _ in range(5000):
        e = ast.Op("!", [e])
    c = ast.copy_tree(e)
    depth = 0
    while isinstance(c, ast.Op):
        assert c is not e and c.op == "!"
        c, e, depth = c.args[0], e.args[0], depth + 1
    assert depth == 5000 and c.value == 0 and c is not e


# -- typechecking ----------------------------------------------------------------

def test_nested_index_types_to_integer():
    src = """
    contract C {
        mapping(int => int[]) x;
        function F() public { int y; y = x[0][1]; }
    }
    """
    program = typecheck(parse_contract(src))
    body = program.contracts[0].function("F").body
    assign = body[1]
    assert isinstance(assign.rhs.ty, ast.IntType)
    assert isinstance(assign.rhs.base.ty, ast.MappingType)


def test_every_expression_annotated(hb_source):
    program = typecheck(parse_contract(hb_source))

    def check_expr(e):
        assert e.ty is not None, f"missing type on {e}"
        for name in e.STRUCT_FIELDS:
            v = getattr(e, name)
            if isinstance(v, ast.SolExpr):
                check_expr(v)
            elif isinstance(v, list):
                for x in v:
                    if isinstance(x, ast.SolExpr):
                        check_expr(x)

    def walk(stmts):
        for s in stmts:
            for name in s.STRUCT_FIELDS:
                v = getattr(s, name, None)
                if isinstance(v, ast.SolExpr):
                    check_expr(v)
                elif isinstance(v, list):
                    for x in v:
                        if isinstance(x, ast.SolStmt):
                            walk([x])
                        elif isinstance(x, ast.SolExpr):
                            check_expr(x)

    for c in program.contracts:
        for fn in c.functions + [c.constructor]:
            if fn and fn.body:
                walk(fn.body)


def test_assert_needs_boolean():
    with pytest.raises(TypeError_):
        typecheck(parse_contract("contract A { function F() public { assert(1); } }"))


def test_storage_array_assignment_rejected():
    src = """
    contract A {
        int[] a;
        int[] b;
        function F() public { a = b; }
    }
    """
    with pytest.raises(DeepCopyUnsupported):
        typecheck(parse_contract(src))


def test_enum_members_lower_to_integers(hb_source):
    program = typecheck(parse_contract(hb_source))
    ctor = program.contracts[0].constructor
    last = ctor.body[-1]
    assert isinstance(last.rhs, ast.EnumMember)
    assert last.rhs.value == 0
    assert isinstance(last.rhs.ty, ast.IntType)


def test_mapping_key_must_be_elementary():
    src = "contract A { mapping(mapping(int => int) => int) m; }"
    with pytest.raises(TypeError_):
        typecheck(parse_contract(src))


def test_duplicate_state_var_across_bases_rejected():
    src = """
    contract A { int x; }
    contract B is A { int x; }
    """
    with pytest.raises(TypeError_):
        typecheck(parse_contract(src))


# -- linearization -----------------------------------------------------------------

def test_single_inheritance():
    order = parse_contract("contract A { } contract B is A { }").order
    assert order["B"] == ["B", "A"]
    assert order["A"] == ["A"]


def test_diamond_linearization():
    src = """
    contract A { }
    contract B is A { }
    contract C is A { }
    contract D is B, C { }
    """
    # C3 merge by hand: D + merge([B,A],[C,A],[B,C]) = [D, B, C, A]
    order = parse_contract(src).order
    assert order["D"] == ["D", "B", "C", "A"]


def test_local_precedence():
    src = """
    contract A { }
    contract B { }
    contract C is A, B { }
    """
    c = parse_contract(src).order["C"]
    assert c[0] == "C"
    assert c.index("A") < c.index("B")


def test_inheritance_cycle_detected():
    src = "contract A is B { } contract B is A { }"
    with pytest.raises(InheritanceCycle):
        parse_contract(src)


def test_ambiguous_linearization_detected():
    src = """
    contract A { }
    contract B { }
    contract C is A, B { }
    contract D is B, A { }
    contract E is C, D { }
    """
    with pytest.raises(AmbiguousLinearization):
        parse_contract(src)


def test_function_resolution_most_derived_first():
    src = """
    contract A { function F() public { } }
    contract B is A { function F() public { } }
    contract C is B { }
    """
    owner, _ = parse_contract(src).resolve("C", "function", "F")
    assert owner == "B"


def test_diamond_resolves_each_kind_on_the_most_derived_owner():
    src = """
    contract A {
        enum E { A1 }
        int a;
        modifier M() { _; }
        function F() public { }
    }
    contract B is A {
        enum E { B1, B2 }
        modifier M() { _; }
    }
    contract C is A {
        int c;
        function F() public { }
    }
    contract D is B, C { }
    """
    program = parse_contract(src)
    assert program.order["D"] == ["D", "B", "C", "A"]
    assert program.resolve("D", "function", "F") == ("C", program.contract("C").function("F"))
    assert program.resolve("D", "state_var", "a") == ("A", ast.INT)
    assert program.resolve("D", "state_var", "c") == ("C", ast.INT)
    assert program.resolve("D", "modifier", "M") == ("B", program.contract("B").modifier("M"))
    assert program.resolve("D", "enum", "E") == ("B", ["B1", "B2"])
    assert program.resolve("C", "enum", "E") == ("A", ["A1"])
    assert program.resolve("D", "function", "G") is None


# -- modifier desugaring ----------------------------------------------------------

def _desugared(src: str):
    return desugar_modifiers(typecheck(parse_contract(src)))


def test_single_modifier_wraps_body():
    src = """
    contract A {
        int x;
        modifier M() { x = 1; _; x = 2; }
        function F() public M() { x = 3; }
    }
    """
    program = _desugared(src)
    body = program.contracts[0].function("F").body
    values = [s.rhs.value for s in body]
    assert values == [1, 3, 2]


def test_zero_modifiers_identity():
    src = """
    contract A {
        int x;
        function F() public { x = 3; }
    }
    """
    before = typecheck(parse_contract(src))
    baseline = [s for s in before.contracts[0].function("F").body]
    program = desugar_modifiers(before)
    assert program.contracts[0].function("F").body == baseline


def test_two_modifiers_nest_first_listed_outermost():
    src = """
    contract A {
        int x;
        modifier M1() { x = 1; _; x = 10; }
        modifier M2() { x = 2; _; x = 20; }
        function F() public M1() M2() { x = 5; }
    }
    """
    program = _desugared(src)
    values = [s.rhs.value for s in program.contracts[0].function("F").body]
    assert values == [1, 2, 5, 20, 10]


def test_modifier_statement_count():
    src = """
    contract A {
        int x;
        modifier M() { x = 1; x = 2; _; x = 3; }
        function F() public M() { x = 5; x = 6; }
    }
    """
    program = _desugared(src)
    assert len(program.contracts[0].function("F").body) == 2 + 2 + 1


def test_modifier_local_renamed_on_collision():
    src = """
    contract A {
        int x;
        modifier M() { int t = x; _; assert(t == x); }
        function F() public M() { int t; t = 7; }
    }
    """
    program = _desugared(src)
    body = program.contracts[0].function("F").body
    decls = [s.name for s in body if isinstance(s, ast.DeclStmt)]
    assert len(decls) == len(set(decls))


# -- syntactic conformance -----------------------------------------------------------

def test_helloblockchain_conforms(hb_source, hb_policy_text):
    program = typecheck(parse_contract(hb_source))
    policy = parse_policy(hb_policy_text)
    assert check_syntactic_conformance(program, policy) == []


def test_missing_function_diagnosed(hb_source, hb_policy_text):
    src = hb_source.replace("function SendResponse", "function SendOther")
    program = typecheck(parse_contract(src))
    policy = parse_policy(hb_policy_text)
    codes = [d.code for d in check_syntactic_conformance(program, policy)]
    assert "MissingFunction" in codes


def test_state_set_mismatch_diagnosed(hb_source, hb_policy_text):
    src = hb_source.replace("enum StateType {Request, Respond}",
                            "enum StateType {Request, Respond, Extra}")
    program = typecheck(parse_contract(src))
    policy = parse_policy(hb_policy_text)
    codes = [d.code for d in check_syntactic_conformance(program, policy)]
    assert "StateSetMismatch" in codes


def test_missing_instance_role_diagnosed(hb_source, hb_policy_text):
    policy_text = hb_policy_text.replace(
        '{ "Name": "Requestor", "Type": "Requestor" },',
        '{ "Name": "Requestor", "Type": "Requestor" },\n'
        '        { "Name": "Arbiter", "Type": "Responder" },')
    program = typecheck(parse_contract(hb_source))
    policy = parse_policy(policy_text)
    codes = [d.code for d in check_syntactic_conformance(program, policy)]
    assert "MissingInstanceRole" in codes


def test_parameter_name_mismatch_diagnosed(hb_source, hb_policy_text):
    src = hb_source.replace("requestMessage", "other")
    program = typecheck(parse_contract(src))
    policy = parse_policy(hb_policy_text)
    codes = [d.code for d in check_syntactic_conformance(program, policy)]
    assert "ParameterName" in codes
