"""Programs for the simulated core, with a small assembler-style builder.

The builder records raw spec tuples; :meth:`ProgramBuilder.build`
resolves labels on them, then constructs each
:class:`~repro.sim.isa.Instruction`, so an instruction is never mutated
after construction.
"""

from repro.sim.isa import Op, Instruction, BRANCH_OPS


class Program:
    """A finalized instruction sequence with resolved branch targets."""

    def __init__(self, instructions, name="program", initial_memory=None,
                 initial_regs=None, metadata=None):
        self.instructions = list(instructions)
        self.name = name
        #: address -> word value preloaded into main memory
        self.initial_memory = dict(initial_memory or {})
        #: register index -> initial value
        self.initial_regs = dict(initial_regs or {})
        #: free-form attack/workload metadata (secret values, probe bases...)
        self.metadata = dict(metadata or {})

    def __len__(self):
        return len(self.instructions)

    def fetch(self, pc):
        """Instruction at ``pc`` or None when past the end."""
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None


class ProgramBuilder:
    """Builds a :class:`Program` with symbolic labels.

    Example::

        b = ProgramBuilder("loop-demo")
        b.movi(1, 0)
        b.label("top")
        b.addi(1, 1, 1)
        b.movi(2, 10)
        b.blt(1, 2, "top")
        b.halt()
        program = b.build()
    """

    def __init__(self, name="program"):
        self.name = name
        self._insts = []
        self._labels = {}
        self._data_labels = []
        self.initial_memory = {}
        self.initial_regs = {}
        self.metadata = {}

    # -- assembly directives -------------------------------------------------

    def label(self, name):
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insts)
        return self

    def emit(self, op, rd=None, rs1=None, rs2=None, imm=0, target=None):
        self._insts.append((op, rd, rs1, rs2, imm, target))
        return self

    def here(self):
        """Index the next emitted instruction will occupy."""
        return len(self._insts)

    def label_pc(self, name):
        """PC a defined label resolves to."""
        return self._labels[name]

    def data(self, addr, value):
        """Preload main memory word at ``addr``."""
        self.initial_memory[addr] = value
        return self

    def reg(self, index, value):
        """Preset an architectural register."""
        self.initial_regs[index] = value
        return self

    # -- instruction helpers -------------------------------------------------

    def movi(self, rd, imm):
        return self.emit(Op.MOVI, rd=rd, imm=imm)

    def movi_label(self, rd, label):
        """rd <- PC of ``label`` (resolved at build time)."""
        return self.emit(Op.MOVI, rd=rd, target=label)

    def data_label(self, addr, label):
        """Preload memory word at ``addr`` with the PC of ``label``."""
        self._data_labels.append((addr, label))
        return self

    def mov(self, rd, rs1):
        return self.emit(Op.MOV, rd=rd, rs1=rs1)

    def add(self, rd, rs1, rs2):
        return self.emit(Op.ADD, rd=rd, rs1=rs1, rs2=rs2)

    def addi(self, rd, rs1, imm):
        return self.emit(Op.ADD, rd=rd, rs1=rs1, imm=imm)

    def sub(self, rd, rs1, rs2):
        return self.emit(Op.SUB, rd=rd, rs1=rs1, rs2=rs2)

    def and_(self, rd, rs1, rs2):
        return self.emit(Op.AND, rd=rd, rs1=rs1, rs2=rs2)

    def andi(self, rd, rs1, imm):
        return self.emit(Op.AND, rd=rd, rs1=rs1, imm=imm)

    def or_(self, rd, rs1, rs2):
        return self.emit(Op.OR, rd=rd, rs1=rs1, rs2=rs2)

    def xor(self, rd, rs1, rs2):
        return self.emit(Op.XOR, rd=rd, rs1=rs1, rs2=rs2)

    def shl(self, rd, rs1, imm):
        return self.emit(Op.SHL, rd=rd, rs1=rs1, imm=imm)

    def shr(self, rd, rs1, imm):
        return self.emit(Op.SHR, rd=rd, rs1=rs1, imm=imm)

    def mul(self, rd, rs1, rs2):
        return self.emit(Op.MUL, rd=rd, rs1=rs1, rs2=rs2)

    def div(self, rd, rs1, rs2):
        return self.emit(Op.DIV, rd=rd, rs1=rs1, rs2=rs2)

    def load(self, rd, rs1, imm=0):
        return self.emit(Op.LOAD, rd=rd, rs1=rs1, imm=imm)

    def store(self, rs1, rs2, imm=0):
        """mem[rs1 + imm] <- rs2."""
        return self.emit(Op.STORE, rs1=rs1, rs2=rs2, imm=imm)

    def storeu(self, rs1, rs2, imm=0):
        """Unaligned store variant."""
        return self.emit(Op.STOREU, rs1=rs1, rs2=rs2, imm=imm)

    def prefetch(self, rs1, imm=0):
        return self.emit(Op.PREFETCH, rs1=rs1, imm=imm)

    def clflush(self, rs1, imm=0):
        return self.emit(Op.CLFLUSH, rs1=rs1, imm=imm)

    def beq(self, rs1, rs2, target):
        return self.emit(Op.BEQ, rs1=rs1, rs2=rs2, target=target)

    def bne(self, rs1, rs2, target):
        return self.emit(Op.BNE, rs1=rs1, rs2=rs2, target=target)

    def blt(self, rs1, rs2, target):
        return self.emit(Op.BLT, rs1=rs1, rs2=rs2, target=target)

    def jmp(self, target):
        return self.emit(Op.JMP, target=target)

    def jmpi(self, rs1):
        return self.emit(Op.JMPI, rs1=rs1)

    def call(self, target):
        """Push the return address to the in-memory stack (r15) and jump."""
        return self.emit(Op.CALL, rd=15, rs1=15, target=target)

    def ret(self):
        """Pop the return address from the in-memory stack and jump to it."""
        return self.emit(Op.RET, rd=15, rs1=15)

    def fence(self):
        return self.emit(Op.FENCE)

    def lfence(self):
        return self.emit(Op.LFENCE)

    def rdtsc(self, rd):
        return self.emit(Op.RDTSC, rd=rd)

    def rdrand(self, rd):
        return self.emit(Op.RDRAND, rd=rd)

    def mark(self, phase_id):
        return self.emit(Op.MARK, imm=phase_id)

    def try_(self, handler_label):
        return self.emit(Op.TRY, target=handler_label)

    def nop(self):
        return self.emit(Op.NOP)

    def halt(self):
        return self.emit(Op.HALT)

    # -- finalization ----------------------------------------------------------

    def build(self):
        """Resolve labels and return the finished :class:`Program`."""
        insts = []
        for op, rd, rs1, rs2, imm, target in self._insts:
            if isinstance(target, str):
                if target not in self._labels:
                    raise ValueError(f"undefined label {target!r}")
                if op is Op.MOVI:
                    imm = self._labels[target]
                    target = None
                else:
                    target = self._labels[target]
            elif target is None and (op in BRANCH_OPS
                                     and op not in (Op.JMPI, Op.RET)):
                raise ValueError(f"{op} needs a target")
            insts.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                                     target=target))
        memory = dict(self.initial_memory)
        for addr, label in self._data_labels:
            if label not in self._labels:
                raise ValueError(f"undefined label {label!r}")
            memory[addr] = self._labels[label]
        return Program(insts, name=self.name,
                       initial_memory=memory,
                       initial_regs=self.initial_regs,
                       metadata=self.metadata)
