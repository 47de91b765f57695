"""User-mode operating-system emulation.

The paper runs user-mode binaries with "operating system calls ...
emulated" (§V.A): the instruction conventionally used to enter the OS is
overridden by an ADL overlay file whose action calls ``__syscall()``,
which lands here.

One :class:`OSEmulator` instance serves one simulated process.  It is
ISA-agnostic; a small :class:`SyscallABI` record says which registers
carry the syscall number, arguments and return value.  The syscall
numbers form our own small stable "repro OS" ABI shared by all three
instruction sets, so one workload builder can target everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.faults import ExitProgram
from repro.arch.state import ArchState
from repro.obs.events import SYSCALL
from repro.obs.probe import NULL_OBS

SYS_EXIT = 1
SYS_READ = 3
SYS_WRITE = 4
SYS_GETPID = 20
SYS_BRK = 45
SYS_TIME = 13

#: human-readable names for the observability layer's per-syscall counters
SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_READ: "read",
    SYS_WRITE: "write",
    SYS_TIME: "time",
    SYS_GETPID: "getpid",
    SYS_BRK: "brk",
}


@dataclass(frozen=True)
class SyscallABI:
    """Register conventions for syscalls on one ISA."""

    regfile: str
    number_reg: int
    arg_regs: tuple[int, int, int]
    ret_reg: int
    #: register that receives 0 on success / 1 on error, or None
    error_reg: int | None = None
    #: architectural stack pointer (used by the loader, kept here so every
    #: per-ISA convention lives in one record)
    stack_reg: int | None = None


class OSEmulator:
    """Emulates the tiny user-mode OS interface the workloads need.

    Use an instance as the ``syscall_handler`` of a synthesized simulator::

        os = OSEmulator(alpha.ABI)
        sim = generated.make(syscall_handler=os)

    Output written to fd 1/2 accumulates in :attr:`stdout` /
    :attr:`stderr`; ``read`` consumes :attr:`stdin`.
    """

    def __init__(
        self,
        abi: SyscallABI,
        stdin: bytes = b"",
        brk_base: int = 0x0100_0000,
        time_step: int = 1,
        obs=None,
    ) -> None:
        self.abi = abi
        self.stdin = bytearray(stdin)
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.brk = brk_base
        self.pid = 1000
        self._time = 0
        self._time_step = time_step
        self.call_counts: dict[int, int] = {}
        self.obs = obs if obs is not None else NULL_OBS

    # -- register plumbing ------------------------------------------------------

    def _regs(self, state: ArchState) -> list[int]:
        return state.rf[self.abi.regfile]

    def _args(self, state: ArchState) -> tuple[int, int, int]:
        regs = self._regs(state)
        a0, a1, a2 = self.abi.arg_regs
        return regs[a0], regs[a1], regs[a2]

    def _ret(self, state: ArchState, value: int, error: bool = False) -> None:
        regs = self._regs(state)
        mask = (1 << state.regfile_def(self.abi.regfile).width) - 1
        regs[self.abi.ret_reg] = value & mask
        if self.abi.error_reg is not None:
            regs[self.abi.error_reg] = 1 if error else 0

    # -- dispatch -----------------------------------------------------------------

    def __call__(self, state: ArchState, di=None) -> None:
        """Handle one syscall trap (signature matches the synth hook)."""
        number = self._regs(state)[self.abi.number_reg]
        self.call_counts[number] = self.call_counts.get(number, 0) + 1
        obs = self.obs
        if obs.enabled:
            obs.counters.inc(f"syscall.{SYSCALL_NAMES.get(number, number)}")
            obs.events.emit(SYSCALL, number=number, pc=state.pc)
        handler = self._HANDLERS.get(number)
        if handler is None:
            self._ret(state, 2**32 - 38, error=True)  # -ENOSYS-ish
            return
        handler(self, state)

    # -- individual syscalls ----------------------------------------------------------

    def _sys_exit(self, state: ArchState) -> None:
        status, _, _ = self._args(state)
        raise ExitProgram(status & 0xFF)

    def _sys_write(self, state: ArchState) -> None:
        fd, buf, length = self._args(state)
        data = state.mem.read_bytes(buf, length)
        if fd == 1:
            self.stdout.extend(data)
        elif fd == 2:
            self.stderr.extend(data)
        else:
            self._ret(state, 2**32 - 9, error=True)  # -EBADF
            return
        self._ret(state, length)

    def _sys_read(self, state: ArchState) -> None:
        fd, buf, length = self._args(state)
        if fd != 0:
            self._ret(state, 2**32 - 9, error=True)
            return
        data = bytes(self.stdin[:length])
        del self.stdin[:length]
        state.mem.write_bytes(buf, data)
        self._ret(state, len(data))

    def _sys_brk(self, state: ArchState) -> None:
        target, _, _ = self._args(state)
        if target:
            self.brk = target
        self._ret(state, self.brk)

    def _sys_getpid(self, state: ArchState) -> None:
        self._ret(state, self.pid)

    def _sys_time(self, state: ArchState) -> None:
        # Deterministic monotone clock so runs are reproducible.
        self._time += self._time_step
        self._ret(state, self._time)

    _HANDLERS = {
        SYS_EXIT: _sys_exit,
        SYS_WRITE: _sys_write,
        SYS_READ: _sys_read,
        SYS_BRK: _sys_brk,
        SYS_GETPID: _sys_getpid,
        SYS_TIME: _sys_time,
    }
