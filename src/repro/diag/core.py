"""Diagnostics model shared by the linter and the generated-code checker.

Every finding is a :class:`Diagnostic` carrying a stable code, a
severity, a message and source attribution.  Attribution is two-level:
``loc`` points at the originating ``.lis`` construct (when known) and
``gen_loc`` at the generated-module line a code-level finding concerns.
Tools register their code catalogues into the process-wide
:data:`REGISTRY` with :func:`register_codes`; codes are namespaced by
prefix (``LIS`` for spec lints, ``CHK`` for generated-code checks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.adl.errors import SourceLoc


class Severity(enum.Enum):
    """How bad a finding is.  Only unsuppressed errors fail a run."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    severity: Severity
    title: str


#: Process-wide code registry; each tool contributes its catalogue.
REGISTRY: dict[str, CodeInfo] = {}


def register_codes(infos: Iterable[CodeInfo]) -> dict[str, CodeInfo]:
    """Register a tool's code catalogue; returns that tool's own view."""
    own: dict[str, CodeInfo] = {}
    for info in infos:
        existing = REGISTRY.get(info.code)
        if existing is not None and existing != info:
            raise ValueError(
                f"diagnostic code {info.code!r} registered twice with "
                f"different definitions"
            )
        REGISTRY[info.code] = info
        own[info.code] = info
    return own


def registered_codes(prefix: str = "") -> dict[str, CodeInfo]:
    """All registered codes, optionally filtered by prefix."""
    return {
        code: info
        for code, info in REGISTRY.items()
        if code.startswith(prefix)
    }


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis tool."""

    code: str
    message: str
    #: originating specification construct (a ``.lis`` location), if known
    loc: SourceLoc | None = None
    severity: Severity | None = None
    suppressed: bool = False
    #: generated-module location, for findings about synthesized code
    gen_loc: SourceLoc | None = None

    def __post_init__(self) -> None:
        if self.severity is None:
            object.__setattr__(self, "severity", REGISTRY[self.code].severity)

    @property
    def title(self) -> str:
        return REGISTRY[self.code].title

    def sort_key(self) -> tuple:
        loc = self.loc
        gen = self.gen_loc
        return (
            loc.filename if loc else "~",
            loc.line if loc else 0,
            loc.column if loc else 0,
            self.code,
            self.message,
            gen.filename if gen else "",
            gen.line if gen else 0,
        )

    def as_suppressed(self) -> "Diagnostic":
        return replace(self, suppressed=True)


def make_diagnostic(
    code: str,
    message: str,
    loc: SourceLoc | None = None,
    gen_loc: SourceLoc | None = None,
) -> Diagnostic:
    """Create a diagnostic with the registry's default severity."""
    if code not in REGISTRY:
        raise KeyError(f"unknown diagnostic code {code!r}")
    return Diagnostic(code=code, message=message, loc=loc, gen_loc=gen_loc)


@dataclass
class DiagnosticResult:
    """The outcome of running one analysis tool over one subject."""

    paths: tuple[str, ...]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def _active(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self._active() if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self._active() if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self._active() if d.severity is Severity.INFO]

    @property
    def suppressed(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def counts(self) -> dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "suppressed": len(self.suppressed),
        }
