"""The ``Program`` container produced by the assembler.

A program is a linear list of instructions plus a symbol table and an
initial data image.  Instructions are executed from the in-memory list (the
simulator does not fetch encoded bytes), but every instruction carries the
byte address it would occupy, so branch targets, literal pools and the
address-generation leakage model all see realistic addresses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction


@dataclass
class DataBlock:
    """A chunk of initialized memory emitted by data directives."""

    address: int
    data: bytes

    @property
    def end(self) -> int:
        return self.address + len(self.data)


@dataclass
class Program:
    """An assembled program: instructions, symbols and initial data."""

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    data_blocks: list[DataBlock] = field(default_factory=list)
    text_base: int = 0x8000
    source: str = ""

    def __post_init__(self) -> None:
        self._by_address = {instr.address: instr for instr in self.instructions}
        self._digest: str | None = None

    def content_digest(self) -> str:
        """A SHA-256 over everything that decides how the program runs.

        Covers ``text_base``, ``source``, the labels and every data
        block's address and bytes; a program without ``source`` (built
        directly rather than assembled) is covered through its rendered
        instructions instead.  Computed on first call and kept: a
        program is treated as immutable once it has been compiled, which
        is what lets the campaign engine's compile cache key on content.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"{self.text_base}\0{self.source}\0".encode())
            if not self.source:
                h.update("\n".join(map(repr, self.instructions)).encode())
            h.update(repr(sorted(self.labels.items())).encode())
            for block in self.data_blocks:
                h.update(b"\0%d:%d:" % (block.address, len(block.data)))
                h.update(bytes(block.data))
            self._digest = h.hexdigest()
        return self._digest

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def label_address(self, name: str) -> int:
        """Resolve a label to its byte address."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"undefined label: {name!r}") from None

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction at a byte address (branch resolution)."""
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"no instruction at address {address:#x}") from None

    def index_of_address(self, address: int) -> int:
        return self.instruction_at(address).index

    @property
    def text_end(self) -> int:
        """First byte address past the last instruction."""
        if not self.instructions:
            return self.text_base
        return self.instructions[-1].address + 4

    def listing(self) -> str:
        """Human-readable listing with addresses, for debugging."""
        addr_to_labels: dict[int, list[str]] = {}
        for name, addr in self.labels.items():
            addr_to_labels.setdefault(addr, []).append(name)
        lines = []
        for instr in self.instructions:
            for name in addr_to_labels.get(instr.address, ()):
                lines.append(f"{name}:")
            lines.append(f"  {instr.address:#010x}:  {instr}")
        return "\n".join(lines)
