"""Portable kernel builder.

A :class:`Kernel` is written once against this API and emitted as real
assembly for each ISA via :mod:`repro.workloads.lowering`::

    k = Kernel()
    i, total = k.regs("i total")
    k.li(total, 0)
    k.li(i, 100)
    k.label("loop")
    k.alu("add", total, total, i)
    k.alui("sub", i, i, 1)
    k.branchi("ne", i, 0, "loop")
    k.store_result(total)
    k.exit(total)
    source = k.emit("alpha")

``store_result`` writes the named register to the ``result`` data word so
validation can read an untruncated value (exit status is only 8 bits).
"""

from __future__ import annotations

from repro.workloads.lowering import LOWERINGS, Lowering


class Kernel:
    """Accumulates portable operations, then emits per-ISA assembly."""

    def __init__(self) -> None:
        self._ops: list[tuple] = []
        self._data: list[str] = []
        self._nregs = 0
        self._uses_result = False

    # -- registers -----------------------------------------------------------

    def regs(self, names: str) -> list[int]:
        """Allocate one virtual register per whitespace-separated name."""
        out = []
        for _ in names.split():
            out.append(self._nregs)
            self._nregs += 1
        return out

    # -- code ------------------------------------------------------------------

    def _op(self, *item) -> None:
        self._ops.append(item)

    def label(self, name: str) -> None:
        self._op("label", name)

    def li(self, rd: int, value: int) -> None:
        self._op("li", rd, value)

    def la(self, rd: int, label: str) -> None:
        self._op("la", rd, label)

    def mov(self, rd: int, rs: int) -> None:
        self._op("mov", rd, rs)

    def alu(self, op: str, rd: int, ra: int, rb: int) -> None:
        self._op("alu", op, rd, ra, rb)

    def alui(self, op: str, rd: int, ra: int, imm: int) -> None:
        self._op("alui", op, rd, ra, imm)

    def shifti(self, op: str, rd: int, ra: int, imm: int) -> None:
        self._op("shifti", op, rd, ra, imm)

    def load(self, rd: int, base: int, offset: int = 0, size: str = "l") -> None:
        self._op("load", rd, base, offset, size)

    def store(self, rs: int, base: int, offset: int = 0, size: str = "l") -> None:
        self._op("store", rs, base, offset, size)

    def branch(self, cond: str, ra: int, rb: int, label: str) -> None:
        self._op("branch", cond, ra, rb, label)

    def branchi(self, cond: str, ra: int, imm: int, label: str) -> None:
        self._op("branchi", cond, ra, imm, label)

    def jump(self, label: str) -> None:
        self._op("jump", label)

    def call(self, label: str) -> None:
        self._op("call", label)

    def ret(self) -> None:
        self._op("ret")

    def exit(self, rs: int) -> None:
        self._op("exit", rs)

    def store_result(self, rs: int) -> None:
        """Persist a register into the 32-bit ``result`` data word."""
        self._uses_result = True
        self._op("store_result", rs)

    # -- data -----------------------------------------------------------------------

    def data_space(self, label: str, nbytes: int, align: int = 8) -> None:
        self._data.append(f".align {align}")
        self._data.append(f"{label}:")
        self._data.append(f".space {nbytes}")

    # -- emission ---------------------------------------------------------------------

    def emit(self, isa: str) -> str:
        """Render this kernel as assembly source for ``isa``."""
        lowering = LOWERINGS[isa]
        lines: list[str] = list(lowering.prologue())
        scratch_addr = None
        for item in self._ops:
            kind = item[0]
            if kind == "label":
                lines.append(f"{item[1]}:")
            elif kind == "store_result":
                # borrow the last virtual register slot for the address
                addr_reg = len(lowering.vregs) - 1
                lines.extend(lowering.la(addr_reg, "result"))
                lines.extend(lowering.store(item[1], addr_reg, 0, "l"))
            else:
                lines.extend(getattr(lowering, kind)(*item[1:]))
        lines.append("")
        lines.extend(self._data)
        if self._uses_result:
            lines.append(".align 8")
            lines.append("result:")
            lines.append(".space 8")
        return "\n".join(lines) + "\n"


def wordsize(isa: str) -> int:
    return LOWERINGS[isa].wordsize


def available_isas() -> list[str]:
    return sorted(LOWERINGS)
