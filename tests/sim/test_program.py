"""Program builder: labels, data directives, validation."""

import pytest

from repro.sim import Machine, ProgramBuilder
from repro.sim.isa import Op


def test_labels_resolve_to_instruction_indices():
    b = ProgramBuilder()
    b.movi(1, 0)
    b.label("top")
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")
    p = b.build()
    assert p.instructions[2].target == 1


def test_duplicate_label_rejected():
    b = ProgramBuilder()
    b.label("x")
    with pytest.raises(ValueError):
        b.label("x")


def test_undefined_label_rejected_at_build():
    b = ProgramBuilder()
    b.jmp("nowhere")
    with pytest.raises(ValueError, match="nowhere"):
        b.build()


def test_branch_without_target_rejected():
    b = ProgramBuilder()
    b.emit(Op.BEQ, rs1=1, rs2=2)
    with pytest.raises(ValueError):
        b.build()


def test_movi_label_resolves_to_pc():
    b = ProgramBuilder()
    b.movi_label(1, "there")
    b.nop()
    b.label("there")
    b.halt()
    p = b.build()
    assert p.instructions[0].imm == 2
    assert p.instructions[0].target is None


def test_data_label_resolves_into_memory():
    b = ProgramBuilder()
    b.data_label(0x1000, "entry")
    b.nop()
    b.label("entry")
    b.halt()
    p = b.build()
    assert p.initial_memory[0x1000] == 1


def test_data_and_reg_directives():
    b = ProgramBuilder()
    b.data(0x2000, 42)
    b.reg(5, 99)
    b.halt()
    p = b.build()
    assert p.initial_memory[0x2000] == 42
    assert p.initial_regs[5] == 99


def test_call_ret_use_stack_pointer_convention():
    b = ProgramBuilder()
    b.call("f")
    b.halt()
    b.label("f")
    b.ret()
    p = b.build()
    call, _, ret = p.instructions
    assert call.rd == 15 and call.rs1 == 15
    assert ret.rd == 15 and ret.rs1 == 15


def test_fetch_out_of_range_returns_none():
    b = ProgramBuilder()
    b.halt()
    p = b.build()
    assert p.fetch(0) is not None
    assert p.fetch(1) is None
    assert p.fetch(-1) is None


def test_label_pc_lookup():
    b = ProgramBuilder()
    b.nop()
    b.label("mid")
    b.halt()
    b.build()
    assert b.label_pc("mid") == 1


def _operands(program):
    return [(i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in program.instructions]


def _loop_source(b, n=10):
    b.movi(1, 0)
    b.movi(2, n)
    b.label("top")
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")
    b.halt()
    return b


def test_each_build_constructs_its_own_instructions():
    a = _loop_source(ProgramBuilder("a")).build()
    b = _loop_source(ProgramBuilder("b")).build()
    assert _operands(a) == _operands(b)
    assert not {id(i) for i in a.instructions} & \
        {id(i) for i in b.instructions}


def test_build_keeps_every_operand():
    b = ProgramBuilder()
    b.emit(Op.ADD, rd=3, rs1=4, rs2=5, imm=6)
    b.load(7, 8, imm=-16)
    b.store(9, 10, imm=24)
    b.label("end")
    b.bne(11, 12, "end")
    b.halt()
    assert _operands(b.build()) == [
        (Op.ADD, 3, 4, 5, 6, None),
        (Op.LOAD, 7, 8, None, -16, None),
        (Op.STORE, None, 9, 10, 24, None),
        (Op.BNE, None, 11, 12, 0, 3),
        (Op.HALT, None, None, None, 0, None),
    ]


def test_same_source_with_the_label_elsewhere_resolves_elsewhere():
    after_setup = _loop_source(ProgramBuilder()).build()
    b = ProgramBuilder()
    b.label("top")
    b.movi(1, 0)
    b.movi(2, 10)
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")
    b.halt()
    at_start = b.build()
    assert after_setup.instructions[3].target == 2
    assert at_start.instructions[3].target == 0


def test_program_does_not_alias_builder_state():
    b = _loop_source(ProgramBuilder())
    b.data(0x2000, 1)
    b.reg(5, 2)
    p = b.build()
    b.data(0x2000, 99)
    b.reg(5, 99)
    b.metadata["late"] = True
    b.nop()
    assert len(p) == 5
    assert p.initial_memory == {0x2000: 1}
    assert p.initial_regs == {5: 2}
    assert p.metadata == {}


def test_long_straight_line_program_runs_every_instruction():
    b = ProgramBuilder()
    b.movi(1, 0)
    for _ in range(150):
        b.addi(1, 1, 1)
    b.halt()
    result = Machine(b.build()).run()
    assert result.halt_reason == "halt"
    assert result.regs[1] == 150
