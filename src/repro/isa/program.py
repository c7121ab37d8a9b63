"""Program container: a code image, an initial data image, and symbols."""

from typing import Dict, List, Optional

from repro.isa.instruction import Instruction

CODE_BASE = 0x1000
DATA_BASE = 0x100000
WORD = 8


class Program:
    """An assembled program.

    Instructions are laid out contiguously from ``CODE_BASE`` with a 4-byte
    pitch.  The initial data image maps 8-byte-aligned addresses to 64-bit
    values; the simulator's main memory is seeded from it.
    """

    def __init__(
        self,
        instructions: List[Instruction],
        data: Optional[Dict[int, int]] = None,
        labels: Optional[Dict[str, int]] = None,
        data_symbols: Optional[Dict[str, int]] = None,
        name: str = "program",
    ):
        # The dicts are adopted, not copied: the assembler hands over its
        # own, and every consumer (core, executor) copies ``data`` itself.
        self.instructions = instructions
        self.data = data if data is not None else {}
        self.labels = labels if labels is not None else {}
        self.data_symbols = data_symbols if data_symbols is not None else {}
        self.name = name
        self._by_pc = {inst.pc: inst for inst in instructions}
        if instructions:
            self.entry = instructions[0].pc
            self.code_end = instructions[-1].pc + 4
        else:
            self.entry = CODE_BASE
            self.code_end = CODE_BASE

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Instruction at ``pc``, or None if outside the code image."""
        return self._by_pc.get(pc)

    def pc_of(self, label: str) -> int:
        """PC of a code label."""
        return self.labels[label]

    def addr_of(self, symbol: str) -> int:
        """Base address of a data symbol."""
        return self.data_symbols[symbol]

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Program {self.name!r}: {len(self)} insts, {len(self.data)} data words>"
