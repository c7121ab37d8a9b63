"""A tiny assembler DSL for writing workload kernels in Python.

Example::

    a = Assembler("count")
    arr = a.data("arr", [5, 2, 9, 1])
    a.li("x1", arr)           # base pointer
    a.li("x2", 4)             # length
    a.li("x3", 0)             # i
    a.li("x4", 0)             # count
    a.label("loop")
    a.slli("x5", "x3", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    a.li("x7", 4)
    a.blt("x6", "x7", "skip")
    a.addi("x4", "x4", 1)
    a.label("skip")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    program = a.build()
"""

from typing import Dict, List, Sequence, Union

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import CODE_BASE, DATA_BASE, Program, WORD
from repro.isa.registers import reg_index

RegLike = Union[str, int]


class _LabelRef:
    """A forward/backward reference to a code label, resolved at build()."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Assembler:
    """Builds a :class:`Program` instruction by instruction."""

    def __init__(self, name: str = "program", code_base: int = CODE_BASE,
                 data_base: int = DATA_BASE):
        self.name = name
        self._code_base = code_base
        self._insts: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._data: Dict[int, int] = {}
        self._data_symbols: Dict[str, int] = {}
        self._data_cursor = data_base

    # ------------------------------------------------------------------
    # Layout helpers.
    # ------------------------------------------------------------------
    @property
    def next_pc(self) -> int:
        return self._code_base + 4 * len(self._insts)

    def label(self, name: str) -> int:
        """Define a code label at the current position; returns its PC."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = self.next_pc
        return self._labels[name]

    def data(self, name: str, values: Sequence[int]) -> int:
        """Allocate and initialize a data array; returns its base address."""
        n = len(values)
        base = self._reserve(name, n)
        self._data.update(zip(range(base, base + n * WORD, WORD),
                              map(int, values)))
        return base

    def alloc(self, name: str, num_words: int) -> int:
        """Reserve ``num_words`` zero-initialized 8-byte words."""
        base = self._reserve(name, num_words)
        self._data.update(dict.fromkeys(
            range(base, base + num_words * WORD, WORD), 0))
        return base

    def _reserve(self, name: str, num_words: int) -> int:
        """Claim the next ``num_words`` words for symbol ``name``.  The
        cursor only moves forward, so the region holds no word yet: the
        bulk fills in :meth:`data` and :meth:`alloc` never overwrite."""
        if name in self._data_symbols:
            raise ValueError(f"duplicate data symbol {name!r}")
        base = self._data_cursor
        if self._data and next(reversed(self._data)) >= base:
            raise RuntimeError(f"data region of {name!r} is not fresh")
        self._data_symbols[name] = base
        self._data_cursor = base + max(num_words, 1) * WORD
        return base

    # ------------------------------------------------------------------
    # Instruction emission.
    # ------------------------------------------------------------------
    def _emit(self, opcode: Opcode, rd=None, rs1=None, rs2=None, imm=None) -> Instruction:
        inst = Instruction(
            opcode=opcode,
            rd=reg_index(rd) if rd is not None else None,
            rs1=reg_index(rs1) if rs1 is not None else None,
            rs2=reg_index(rs2) if rs2 is not None else None,
            imm=imm,
            pc=self.next_pc,
        )
        self._insts.append(inst)
        return inst

    # Register-register ALU.
    def add(self, rd, rs1, rs2):
        return self._emit(Opcode.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        return self._emit(Opcode.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        return self._emit(Opcode.AND, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        return self._emit(Opcode.OR, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        return self._emit(Opcode.XOR, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        return self._emit(Opcode.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        return self._emit(Opcode.SRL, rd, rs1, rs2)

    def sra(self, rd, rs1, rs2):
        return self._emit(Opcode.SRA, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        return self._emit(Opcode.SLT, rd, rs1, rs2)

    def sltu(self, rd, rs1, rs2):
        return self._emit(Opcode.SLTU, rd, rs1, rs2)

    def min_(self, rd, rs1, rs2):
        return self._emit(Opcode.MIN, rd, rs1, rs2)

    def max_(self, rd, rs1, rs2):
        return self._emit(Opcode.MAX, rd, rs1, rs2)

    def mul(self, rd, rs1, rs2):
        return self._emit(Opcode.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        return self._emit(Opcode.DIV, rd, rs1, rs2)

    def rem(self, rd, rs1, rs2):
        return self._emit(Opcode.REM, rd, rs1, rs2)

    # Register-immediate ALU.
    def addi(self, rd, rs1, imm: int):
        return self._emit(Opcode.ADDI, rd, rs1, imm=imm)

    def andi(self, rd, rs1, imm: int):
        return self._emit(Opcode.ANDI, rd, rs1, imm=imm)

    def ori(self, rd, rs1, imm: int):
        return self._emit(Opcode.ORI, rd, rs1, imm=imm)

    def xori(self, rd, rs1, imm: int):
        return self._emit(Opcode.XORI, rd, rs1, imm=imm)

    def slti(self, rd, rs1, imm: int):
        return self._emit(Opcode.SLTI, rd, rs1, imm=imm)

    def slli(self, rd, rs1, imm: int):
        return self._emit(Opcode.SLLI, rd, rs1, imm=imm)

    def srli(self, rd, rs1, imm: int):
        return self._emit(Opcode.SRLI, rd, rs1, imm=imm)

    def srai(self, rd, rs1, imm: int):
        return self._emit(Opcode.SRAI, rd, rs1, imm=imm)

    def li(self, rd, imm: int):
        return self._emit(Opcode.LI, rd, imm=imm)

    def mv(self, rd, rs1):
        """Pseudo: register move (addi rd, rs1, 0)."""
        return self._emit(Opcode.ADDI, rd, rs1, imm=0)

    # Memory.
    def ld(self, rd, base, offset: int = 0):
        return self._emit(Opcode.LD, rd, base, imm=offset)

    def sd(self, src, base, offset: int = 0):
        """Store ``src`` to ``base + offset`` (rs1 = base, rs2 = data)."""
        return self._emit(Opcode.SD, rs1=base, rs2=src, imm=offset)

    # Control flow.  ``target`` may be a label name or absolute PC.
    def _target(self, target) -> Union[int, _LabelRef]:
        if isinstance(target, str):
            return _LabelRef(target)
        return int(target)

    def _branch(self, op: Opcode, rs1, rs2, target):
        inst = self._emit(op, rs1=rs1, rs2=rs2)
        inst.imm = self._target(target)
        return inst

    def beq(self, rs1, rs2, target):
        return self._branch(Opcode.BEQ, rs1, rs2, target)

    def bne(self, rs1, rs2, target):
        return self._branch(Opcode.BNE, rs1, rs2, target)

    def blt(self, rs1, rs2, target):
        return self._branch(Opcode.BLT, rs1, rs2, target)

    def bge(self, rs1, rs2, target):
        return self._branch(Opcode.BGE, rs1, rs2, target)

    def bltu(self, rs1, rs2, target):
        return self._branch(Opcode.BLTU, rs1, rs2, target)

    def bgeu(self, rs1, rs2, target):
        return self._branch(Opcode.BGEU, rs1, rs2, target)

    def jal(self, rd, target):
        inst = self._emit(Opcode.JAL, rd)
        inst.imm = self._target(target)
        return inst

    def j(self, target):
        """Pseudo: unconditional jump (jal x0)."""
        return self.jal("x0", target)

    def jalr(self, rd, rs1, offset: int = 0):
        return self._emit(Opcode.JALR, rd, rs1, imm=offset)

    def call(self, target):
        """Pseudo: jal ra, target."""
        return self.jal("ra", target)

    def ret(self):
        """Pseudo: jalr x0, ra, 0."""
        return self.jalr("x0", "ra", 0)

    def nop(self):
        return self._emit(Opcode.NOP)

    def halt(self):
        return self._emit(Opcode.HALT)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Resolve label references and hand the program over.

        The :class:`Program` adopts this assembler's instruction list and
        its data, label and symbol dicts without copying them, so the
        assembler must not be used after building."""
        for inst in self._insts:
            if isinstance(inst.imm, _LabelRef):
                name = inst.imm.name
                if name not in self._labels:
                    raise ValueError(f"undefined label {name!r} at {inst.pc:#x}")
                inst.imm = self._labels[name]
        return Program(
            instructions=self._insts,
            data=self._data,
            labels=self._labels,
            data_symbols=self._data_symbols,
            name=self.name,
        )
