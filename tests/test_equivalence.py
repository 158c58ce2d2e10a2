"""Source-level reference semantics versus the IR interpreter.

Randomly generated deterministic subset programs (no nondeterminism, no
havoc'd inputs) must end with identical state-variable values along a fixed
transaction sequence, and the three-contract nested-mapping program must
satisfy its embedded assertions in both.
"""

import random

import pytest

from solverify.sol import desugar_modifiers, parse_contract, typecheck
from solverify.sol.interp import SolArr, make_world
from solverify.translate import translate_program
from solverify.vir import ast as I
from solverify.vir.interp import Completed, MapValue, interpret
from solverify.vir.prelude import LENGTH


# -- random program generation ---------------------------------------------------

class Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.int_vars = [f"s{i}" for i in range(self.rng.randint(2, 4))]
        self.map_vars = [f"m{i}" for i in range(self.rng.randint(1, 2))]
        self.arr_vars = ["arr"] if self.rng.random() < 0.7 else []
        self.fn_params: dict[str, list[str]] = {}

    def expr(self, params: list[str], depth: int = 0) -> str:
        r = self.rng.random()
        atoms = [str(self.rng.randint(0, 5))]
        atoms += self.int_vars
        atoms += params
        if depth < 2:
            if self.map_vars and r < 0.25:
                m = self.rng.choice(self.map_vars)
                return f"{m}[{self.expr(params, depth + 1)}]"
            if self.arr_vars and r < 0.35:
                return f"arr[{self.expr(params, depth + 1)}]"
            if r < 0.7:
                op = self.rng.choice(["+", "-", "*"])
                return (f"({self.expr(params, depth + 1)} {op} "
                        f"{self.expr(params, depth + 1)})")
        return self.rng.choice(atoms)

    def cond(self, params: list[str]) -> str:
        op = self.rng.choice(["<", "<=", "==", "!=", ">", ">="])
        return f"{self.expr(params)} {op} {self.expr(params)}"

    def stmt(self, params: list[str], depth: int = 0) -> list[str]:
        r = self.rng.random()
        if r < 0.35:
            return [f"{self.rng.choice(self.int_vars)} = {self.expr(params)};"]
        if self.map_vars and r < 0.55:
            m = self.rng.choice(self.map_vars)
            return [f"{m}[{self.expr(params)}] = {self.expr(params)};"]
        if self.arr_vars and r < 0.7:
            return [f"arr.push({self.expr(params)});"]
        if r < 0.85 and depth < 1:
            then = self.block(params, 2, depth + 1)
            els = self.block(params, 1, depth + 1)
            lines = [f"if ({self.cond(params)}) {{"] + \
                ["    " + s for s in then] + ["} else {"] + \
                ["    " + s for s in els] + ["}"]
            return lines
        if depth < 1:
            n = self.rng.randint(1, 3)
            counter = f"i{self.rng.randint(0, 999)}"
            inner = self.block(params, 2, depth + 1)
            return ([f"int {counter};", f"{counter} = 0;",
                     f"while ({counter} < {n}) {{"]
                    + ["    " + s for s in inner]
                    + [f"    {counter} = {counter} + 1;", "}"])
        return [f"{self.rng.choice(self.int_vars)} = {self.expr(params)};"]

    def block(self, params: list[str], n: int, depth: int = 0) -> list[str]:
        out = []
        for _ in range(n):
            out += self.stmt(params, depth)
        return out

    def program(self) -> tuple[str, list[tuple[str, list[int]]]]:
        decls = [f"    int {v};" for v in self.int_vars]
        decls += [f"    mapping(int => int) {v};" for v in self.map_vars]
        decls += ["    int[] arr;" for _ in self.arr_vars]
        ctor = ["    constructor() public {"] + \
            ["        " + s for s in self.block([], 3)] + ["    }"]
        fns = []
        calls = []
        for i in range(self.rng.randint(2, 3)):
            name = f"F{i}"
            nparams = self.rng.randint(0, 2)
            params = [f"p{j}" for j in range(nparams)]
            self.fn_params[name] = params
            sig = ", ".join(f"int {p}" for p in params)
            fns += [f"    function {name}({sig}) public {{"] + \
                ["        " + s for s in self.block(params, self.rng.randint(2, 5))] + \
                ["    }"]
            for _ in range(self.rng.randint(1, 2)):
                calls.append((name, [self.rng.randint(0, 4) for _ in params]))
        self.rng.shuffle(calls)
        src = "contract R {\n" + "\n".join(decls + ctor + fns) + "\n}\n"
        return src, calls[:6]


def _ir_driver(tr, calls):
    stmts = [
        I.Alloc("inst", contract="R"),
        I.Call("R_Ctor", (I.Var("inst"), I.RConst(9001))),
    ]
    for fn, args in calls:
        stmts.append(I.Call(f"{fn}_R", tuple(
            [I.Var("inst")] + [I.IConst(a) for a in args] + [I.RConst(9001)])))
    return I.IrProcedure("driver", [], [], [("inst", I.REF)], I.seq(*stmts))


def _compare_state(program, tr, world, outcome):
    root = world.instances[0]
    inst_ref = 1  # the driver's first allocation
    ir_state = outcome.state
    for name, _ty in program.contracts[0].state_vars:
        ir_map: MapValue = ir_state.globals[f"{name}_R"]
        sol_value = root.state[name]
        ir_value = ir_map.entries.get(inst_ref, 0)
        if isinstance(sol_value, SolArr):
            assert isinstance(ir_value, int)  # a reference
            length_map: MapValue = ir_state.globals[LENGTH]
            assert length_map.entries.get(ir_value, 0) == sol_value.length, name
            leaf: MapValue = ir_state.globals["M_int_int"]
            row = leaf.entries.get(ir_value)
            row_entries = dict(row.entries) if row is not None else {}
            keys = set(sol_value.entries) | set(row_entries)
            for key in keys:
                assert row_entries.get(key, 0) == sol_value.entries.get(key, 0), \
                    (name, key)
        else:
            assert ir_value == sol_value, name


@pytest.mark.parametrize("seed", range(24))
def test_random_program_equivalence(seed):
    gen = Gen(seed)
    src, calls = gen.program()
    program = desugar_modifiers(typecheck(parse_contract(src)))
    tr = translate_program(program)
    driver = _ir_driver(tr, calls)
    tr.ir.add_proc(driver)
    outcome = interpret(tr.ir, "driver", budget=10 ** 6)
    assert isinstance(outcome, Completed), (seed, src)

    world = make_world(program, interner=dict(tr.interner))
    inst = world.new_instance("R", [], sender=("eoa", 1))
    for fn, args in calls:
        world.call_function(inst, fn, list(args), sender=("eoa", 1))
    _compare_state(program, tr, world, outcome)


def test_statement_budget_stays_small():
    for seed in range(24):
        src, _ = Gen(seed).program()
        assert src.count(";") <= 90  # a few dozen statements at most


def test_companion_nested_mapping_asserts_hold_in_ir():
    src = open("tests/fixtures/nested_maps.sol").read()
    program = desugar_modifiers(typecheck(parse_contract(src)))
    tr = translate_program(program)
    driver = I.IrProcedure("driver", [], [], [("r", I.REF)], I.seq(
        I.Alloc("r", contract="C"),
        I.Call("C_Ctor", (I.Var("r"), I.RConst(9001)))))
    tr.ir.add_proc(driver)
    outcome = interpret(tr.ir, "driver")
    assert isinstance(outcome, Completed)


def test_companion_nested_mapping_asserts_hold_in_source_semantics():
    src = open("tests/fixtures/nested_maps.sol").read()
    program = desugar_modifiers(typecheck(parse_contract(src)))
    world = make_world(program)
    world.new_instance("C", [], sender=("eoa", 1))  # asserts raise on failure
    assert len(world.instances) == 2  # C plus the nested B
