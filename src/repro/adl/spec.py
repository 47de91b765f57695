"""Resolved ISA specification model.

:func:`repro.adl.analyzer.analyze` turns raw declarations into an
:class:`IsaSpec`.  Everything here is buildset-independent: the *single
specification* of the paper's principle.  The synthesizer
(:mod:`repro.synth`) later specializes it per buildset.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.adl.errors import SourceLoc
from repro.arch.registers import RegisterFileDef, SpecialRegisterDef, width_of

#: Fields every description gets for free; also the paper's "Min"
#: informational level ("address, instruction encoding, next PC, faults,
#: and simulator context").
BUILTIN_FIELDS: dict[str, str] = {
    "pc": "u64",
    "phys_pc": "u64",
    "instr_bits": "u64",
    "next_pc": "u64",
    "fault": "u32",
}

#: Builtin fields that remain visible in every interface.
ALWAYS_VISIBLE: frozenset[str] = frozenset(BUILTIN_FIELDS)


@dataclass(frozen=True)
class Bitfield:
    """One contiguous bit range of an instruction format."""

    name: str
    hi: int
    lo: int
    signed: bool

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def extract(self, word: int) -> int:
        """Extract this bitfield's (possibly sign-extended) value."""
        value = (word >> self.lo) & ((1 << self.width) - 1)
        if self.signed and value & (1 << (self.width - 1)):
            value -= 1 << self.width
        return value


@dataclass(frozen=True)
class Format:
    """A named instruction encoding layout."""

    name: str
    bitfields: dict[str, Bitfield]
    loc: SourceLoc | None = None


@dataclass(frozen=True)
class Field:
    """An intermediate value / operand value communicable via an interface."""

    name: str
    type: str
    builtin: bool = False
    #: operand slot this field belongs to, if any ("src1_id" -> "src1")
    slot: str | None = None
    loc: SourceLoc | None = None

    @property
    def width(self) -> int:
        return width_of(self.type)


@dataclass(frozen=True)
class Accessor:
    """Parsed accessor: how operands decode, read and write state."""

    name: str
    params: tuple[str, ...]
    decode: tuple[ast.stmt, ...]
    read: tuple[ast.stmt, ...]
    write: tuple[ast.stmt, ...]
    loc: SourceLoc | None = None


@dataclass(frozen=True)
class OperandSlot:
    """A named operand position declared by ``operandname``."""

    name: str
    direction: str  # "source" | "dest"
    decode_action: str
    access_action: str
    value_field: str

    @property
    def id_field(self) -> str:
        return f"{self.name}_id"


@dataclass(frozen=True)
class OperandBinding:
    """An operand slot bound to an accessor for one class/instruction."""

    slot: OperandSlot
    accessor: Accessor
    args: tuple[object, ...]
    target: str
    loc: SourceLoc | None = None


@dataclass(frozen=True)
class Instruction:
    """One fully-resolved instruction."""

    name: str
    format: Format
    classes: tuple[str, ...]
    #: decode (mask, value) alternatives over the instruction word
    patterns: tuple[tuple[int, int], ...]
    #: operand bindings in effect, in declaration order
    operands: tuple[OperandBinding, ...]
    #: action name -> statements (operand-generated + user snippet),
    #: already instantiated for this instruction
    action_code: dict[str, tuple[ast.stmt, ...]] = field(default_factory=dict)
    loc: SourceLoc | None = None
    #: action name -> source location of the user snippet that provided
    #: its code (instruction-specific, class, or wildcard declaration)
    action_locs: dict[str, SourceLoc] = field(default_factory=dict)

    @property
    def mask(self) -> int:
        return self.patterns[0][0]

    @property
    def value(self) -> int:
        return self.patterns[0][1]


@dataclass(frozen=True)
class Entrypoint:
    """One interface call of a buildset (groups already expanded)."""

    name: str
    block: bool
    actions: tuple[str, ...]


@dataclass(frozen=True)
class Buildset:
    """One interface definition: the paper's central construct."""

    name: str
    speculation: bool
    visible: frozenset[str]
    entrypoints: tuple[Entrypoint, ...]
    loc: SourceLoc | None = None
    #: fields named by an explicit ``visibility show`` list (as opposed to
    #: a blanket ``show all``); lets tooling tell deliberate exposure from
    #: the default
    explicit_shows: frozenset[str] = frozenset()

    @property
    def semantic_detail(self) -> str:
        """Classify as the paper's Block / One / Step levels."""
        if any(ep.block for ep in self.entrypoints):
            return "block"
        return "one" if len(self.entrypoints) == 1 else "step"


@dataclass
class IsaSpec:
    """The single specification: everything about an instruction set."""

    name: str
    endian: str
    ilen: int
    regfiles: dict[str, RegisterFileDef]
    sregs: dict[str, SpecialRegisterDef]
    fields: dict[str, Field]
    formats: dict[str, Format]
    accessors: dict[str, Accessor]
    operand_slots: dict[str, OperandSlot]
    classes: tuple[str, ...]
    instructions: list[Instruction]
    action_order: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]
    helpers: dict[str, object]  # name -> callable (pure by contract)
    helper_sources: dict[str, str]
    predicate: tuple[str, str] | None  # (field, after_action)
    buildsets: dict[str, Buildset]

    def instruction(self, name: str) -> Instruction:
        for instr in self.instructions:
            if instr.name == name:
                return instr
        raise KeyError(name)

    def action_index(self, name: str) -> int:
        return self.action_order.index(name)

    def make_state(self):
        """Create a fresh :class:`~repro.arch.state.ArchState` for this ISA."""
        from repro.arch.state import ArchState

        return ArchState(
            regfiles=self.regfiles.values(),
            sregs=self.sregs.values(),
            endian=self.endian,
        )

    def decode_groups(self) -> list[tuple[int, dict[int, int]]]:
        """Build decode dispatch tables.

        Returns ``[(mask, {word & mask: instruction_index})]`` ordered by
        descending mask popcount, so the most specific encodings match
        first.
        """
        by_mask: dict[int, dict[int, int]] = {}
        for index, instr in enumerate(self.instructions):
            for mask, value in instr.patterns:
                table = by_mask.setdefault(mask, {})
                table[value] = index
        return sorted(
            by_mask.items(), key=lambda item: bin(item[0]).count("1"), reverse=True
        )

    def decode(self, word: int) -> int | None:
        """Decode one instruction word to an instruction index (slow path)."""
        for mask, table in self.decode_groups():
            index = table.get(word & mask)
            if index is not None:
                return index
        return None
