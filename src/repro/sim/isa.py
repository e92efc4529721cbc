"""Micro-op ISA of the simulated out-of-order core.

The core executes a small RISC-like micro-op set sufficient to express
every attack and workload in the paper: ALU ops (with slow multiply/divide
useful for delaying branch resolution), loads/stores (including unaligned
stores, which exercise the store-to-load forwarding fast path that MDS-type
attacks abuse), conditional branches, indirect jumps (BTB), call/return
(RAS), cache-line flush, fences, cycle-counter and hardware-RNG reads, and
bookkeeping ops (phase markers, trap-handler registration).

Memory is word-granular (8-byte words, 64-byte cache lines).  Addresses at
or above :data:`KERNEL_BASE` are privileged: a user-mode load to them
executes transiently (returning the real data when the machine is
configured Meltdown-vulnerable) but faults when it reaches the reorder
buffer head.  Addresses with :data:`ASSIST_BIT` set model pages whose
accesses require a microcode assist; an assisted load transiently receives
stale data from the store queue / write queue (the LVI / MDS fault path)
before being squashed.
"""

import enum
from dataclasses import dataclass

#: Number of architectural integer registers.  r15 is the stack pointer by
#: software convention (CALL/RET use in-memory return addresses through it).
NUM_REGS = 16

#: Loads/stores at or above this address are privileged.
KERNEL_BASE = 0x8000_0000

#: Address bit marking "assist" pages (accesses need a microcode assist and
#: transiently forward stale buffered data before faulting).
ASSIST_BIT = 0x4000_0000

#: Bytes per machine word and per cache line.
WORD_BYTES = 8
LINE_BYTES = 64


class Op(enum.Enum):
    """Micro-operation kinds."""

    # ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MUL = "mul"          # 4-cycle latency
    DIV = "div"          # 16-cycle latency; used to delay branch resolution
    MOVI = "movi"        # rd <- imm
    MOV = "mov"          # rd <- rs1
    # Memory
    LOAD = "load"        # rd <- mem[rs1 + imm]
    STORE = "store"      # mem[rs1 + imm] <- rs2
    STOREU = "storeu"    # unaligned store (stresses forwarding fast path)
    PREFETCH = "prefetch"
    CLFLUSH = "clflush"  # evict the line of rs1 + imm from all caches
    # Control
    BEQ = "beq"          # if rs1 == rs2 goto target
    BNE = "bne"
    BLT = "blt"
    JMP = "jmp"          # unconditional direct
    JMPI = "jmpi"        # indirect: target = value(rs1); uses the BTB
    CALL = "call"        # push return address (memory + RAS), jump
    RET = "ret"          # pop return address from memory, predict via RAS
    # Special
    FENCE = "fence"      # full serialization: younger ops wait for commit
    LFENCE = "lfence"    # loads younger than it wait for it to commit
    RDTSC = "rdtsc"      # rd <- current cycle
    RDRAND = "rdrand"    # rd <- hardware RNG (shared-unit contention timing)
    MARK = "mark"        # record an attack-phase boundary (commits as a nop)
    TRY = "try"          # register target as the trap handler
    NOP = "nop"
    HALT = "halt"


#: Ops that read memory.
LOAD_OPS = frozenset({Op.LOAD})
#: Ops that write memory.
STORE_OPS = frozenset({Op.STORE, Op.STOREU})
#: Ops resolved by the branch unit.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.JMP, Op.JMPI, Op.CALL, Op.RET})
#: Conditional direct branches (predicted by the tournament predictor).
COND_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT})
#: Serializing ops.
SERIALIZING_OPS = frozenset({Op.FENCE, Op.LFENCE, Op.TRY})
#: Branch kinds that can actually mispredict (direct JMP/CALL cannot) and
#: therefore shadow younger speculative work until they resolve.
MISPREDICTABLE_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.JMPI, Op.RET})

#: Execution latency (cycles) per op kind, excluding memory time.
#: (Lives here rather than in ``units`` so :class:`Instruction` can cache
#: its latency at build time; ``repro.sim.units`` re-exports it.)
OP_LATENCY = {
    Op.ADD: 1, Op.SUB: 1, Op.AND: 1, Op.OR: 1, Op.XOR: 1,
    Op.SHL: 1, Op.SHR: 1, Op.MOV: 1, Op.MOVI: 1,
    Op.MUL: 4, Op.DIV: 16,
    Op.BEQ: 1, Op.BNE: 1, Op.BLT: 1, Op.JMP: 1, Op.JMPI: 1,
    Op.CALL: 1, Op.RET: 1,
    Op.FENCE: 1, Op.LFENCE: 1, Op.TRY: 1, Op.MARK: 1, Op.NOP: 1,
    Op.HALT: 1, Op.RDTSC: 1, Op.PREFETCH: 1,
    # LOAD/STORE/CLFLUSH/RDRAND latencies are computed dynamically.
}

#: Issue-port class indices (see :class:`repro.sim.units.ExecPorts`, whose
#: per-cycle capacity/usage tables are lists indexed by these).
PORT_INT = 0
PORT_MULDIV = 1
PORT_MEM = 2

PORT_OF_OP = {
    Op.MUL: PORT_MULDIV, Op.DIV: PORT_MULDIV, Op.RDRAND: PORT_MULDIV,
    Op.LOAD: PORT_MEM, Op.STORE: PORT_MEM, Op.STOREU: PORT_MEM,
    Op.CLFLUSH: PORT_MEM, Op.PREFETCH: PORT_MEM,
}

# Small-int dispatch codes precomputed per instruction so the simulator's
# hot loop branches on integer compares instead of chains of enum
# identity checks (each of which costs a global + attribute lookup).

#: Execute-stage handler selector (mirrors the dispatch order the original
#: if/elif chain in O3Core._execute used): 0 ALU/simple, 1 load-like
#: (LOAD/RET), 2 store-like (STORE/STOREU/CALL), 3 branch, 4 CLFLUSH,
#: 5 PREFETCH, 6 RDRAND, 7 RDTSC.
EXEC_KIND_OF = {
    Op.LOAD: 1, Op.RET: 1,
    Op.STORE: 2, Op.STOREU: 2, Op.CALL: 2,
    Op.BEQ: 3, Op.BNE: 3, Op.BLT: 3, Op.JMP: 3, Op.JMPI: 3,
    Op.CLFLUSH: 4, Op.PREFETCH: 5, Op.RDRAND: 6, Op.RDTSC: 7,
}

#: ALU operation selector for O3Core._execute_alu (0 = ADD first: most
#: common in the workloads).
ALU_CODE_OF = {
    Op.ADD: 0, Op.SUB: 1, Op.AND: 2, Op.OR: 3, Op.XOR: 4,
    Op.SHL: 5, Op.SHR: 6, Op.MUL: 7, Op.DIV: 8, Op.MOVI: 9, Op.MOV: 10,
}

#: Fetch-time prediction selector: 0 not a branch, 1 conditional,
#: 2 direct JMP, 3 CALL, 4 indirect JMPI, 5 RET.
PRED_KIND_OF = {
    Op.BEQ: 1, Op.BNE: 1, Op.BLT: 1,
    Op.JMP: 2, Op.CALL: 3, Op.JMPI: 4, Op.RET: 5,
}

#: Commit-time special handling: 0 none, 1 MARK, 2 TRY, 3 FENCE/LFENCE,
#: 4 HALT.
RETIRE_KIND_OF = {
    Op.MARK: 1, Op.TRY: 2, Op.FENCE: 3, Op.LFENCE: 3, Op.HALT: 4,
}


@dataclass
class Instruction:
    """One micro-op.

    ``target`` is an instruction index: :meth:`ProgramBuilder.build`
    resolves label names before it constructs the instruction.

    Pipeline-static properties (ROB classification flags, execution latency
    and issue-port class) are precomputed once here so the simulator's hot
    loop reads plain attributes instead of hashing :class:`Op` members into
    frozensets/dicts on every dispatch.  The flags use the ROB's semantics:
    CALL *is* a store (it pushes the return address) and RET *is* a load
    (it pops it).
    """

    op: Op
    rd: int = None
    rs1: int = None
    rs2: int = None
    imm: int = 0
    target: object = None  # int PC, resolved by ProgramBuilder.build

    def __post_init__(self):
        op = self.op
        self.is_load = op in LOAD_OPS or op is Op.RET
        self.is_store = op in STORE_OPS or op is Op.CALL
        self.is_branch = op in BRANCH_OPS
        self.is_cond_branch = op in COND_BRANCH_OPS
        self.is_shadowing = op in MISPREDICTABLE_OPS
        self.is_memop = op is Op.LOAD or op is Op.STORE or op is Op.STOREU
        self.is_halt = op is Op.HALT
        self.exec_latency = OP_LATENCY.get(op, 1)
        self.port = PORT_OF_OP.get(op, PORT_INT)
        self.exec_kind = EXEC_KIND_OF.get(op, 0)
        self.alu_code = ALU_CODE_OF.get(op, -1)  # -1: no result (NOP etc.)
        self.pred_kind = PRED_KIND_OF.get(op, 0)
        self.retire_kind = RETIRE_KIND_OF.get(op, 0)
        self.srcs = tuple(r for r in (self.rs1, self.rs2) if r is not None)
        # dispatch-stage bookkeeping mask: 0 for plain ALU ops, so the hot
        # dispatch loop skips five flag checks with one integer test
        # (1 store, 2 load, 4 shadowing, 8 memop, 16 fence/lfence)
        self.disp_flags = (
            (1 if self.is_store else 0)
            | (2 if self.is_load else 0)
            | (4 if self.is_shadowing else 0)
            | (8 if self.is_memop else 0)
            | (16 if self.retire_kind == 3 else 0)
        )

    def source_regs(self):
        """Architectural registers this op reads."""
        regs = []
        if self.rs1 is not None:
            regs.append(self.rs1)
        if self.rs2 is not None:
            regs.append(self.rs2)
        return regs

    def __repr__(self):
        parts = [self.op.value]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.rs1 is not None:
            parts.append(f"r{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"r{self.rs2}")
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        return f"<{' '.join(str(p) for p in parts)}>"


def is_kernel_address(addr):
    """True when ``addr`` is in the privileged range."""
    return addr >= KERNEL_BASE


def is_assist_address(addr):
    """True when ``addr`` lies on an assist page (LVI/MDS fault path)."""
    return bool(addr & ASSIST_BIT) and not is_kernel_address(addr)


def line_of(addr):
    """Cache line index of a byte address."""
    return addr // LINE_BYTES
