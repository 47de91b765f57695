"""Stored instruction traces (paper §II-B).

"The instruction stream could even be written to storage and then fed to
the timing simulator or multiple timing simulators in parallel."  A
:class:`TraceWriter` captures the per-instruction records of any Block
interface into a compact file; :class:`TraceReader` replays them into as
many trace-consuming timing models as desired, with no functional
simulation at all on the replay side.

File format: a text header naming the ISA, interface and record fields,
then one line per instruction with ``repr``-compatible values (``-`` for
fields the instruction did not produce).  Deliberately simple and
diff-able; density was not a goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

from repro.arch.faults import ExitProgram
from repro.synth.synthesizer import GeneratedSimulator

MAGIC = "repro-trace 1"


class TraceWriter:
    """Runs a Block-interface simulator and streams its records to a file."""

    def __init__(self, generated: GeneratedSimulator, syscall_handler=None):
        if generated.plan.buildset.semantic_detail != "block":
            raise ValueError("trace capture needs a Block-detail interface")
        self.generated = generated
        self.sim = generated.make(syscall_handler=syscall_handler)
        self.fields = generated.plan.trace_fields

    @property
    def state(self):
        return self.sim.state

    def capture(self, stream: IO[str], max_instructions: int) -> int:
        """Run and write records; returns instructions captured."""
        plan = self.generated.plan
        stream.write(f"{MAGIC}\n")
        stream.write(f"isa {plan.spec.name}\n")
        stream.write(f"interface {plan.buildset.name}\n")
        stream.write(f"fields {' '.join(self.fields)}\n")
        sim = self.sim
        di = sim.di
        captured = 0

        def flush_records():
            nonlocal captured
            for record in di.trace:
                stream.write(
                    " ".join("-" if v is None else str(v) for v in record)
                )
                stream.write("\n")
                captured += 1

        try:
            while captured < max_instructions:
                di.count = 0
                sim.do_block(di)
                flush_records()
        except ExitProgram as exc:
            flush_records()
            stream.write(f"exit {exc.status}\n")
        return captured


@dataclass
class TraceHeader:
    isa: str
    interface: str
    fields: tuple[str, ...]


class TraceReader:
    """Replays a stored trace as per-instruction record dicts."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        if stream.readline().strip() != MAGIC:
            raise ValueError("not a repro trace file")
        header: dict[str, str] = {}
        for _ in range(3):
            key, _, value = stream.readline().strip().partition(" ")
            header[key] = value
        self.header = TraceHeader(
            isa=header["isa"],
            interface=header["interface"],
            fields=tuple(header["fields"].split()),
        )
        self.exit_status: int | None = None

    def __iter__(self) -> Iterator[dict[str, int | None]]:
        fields = self.header.fields
        for line in self._stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("exit "):
                self.exit_status = int(line.split()[1])
                return
            values = [
                None if token == "-" else int(token) for token in line.split()
            ]
            yield dict(zip(fields, values))


def replay_into(reader: TraceReader, timing_model) -> None:
    """Feed every record of ``reader`` into an in-order pipeline model."""
    for record in reader:
        timing_model.consume(
            record["pc"],
            record["instr_bits"],
            record["next_pc"],
            record.get("effective_addr"),
        )
