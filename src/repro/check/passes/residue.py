"""Zero-overhead residue (CHK040, CHK041).

Both the observability layer (:mod:`repro.obs`) and the host-op
cost accounting promise *zero overhead when off*: a module synthesized
without ``observe``/``hostops`` must be byte-identical to one that never heard
of those features.  The runtime tests sample that promise; this pass
proves it structurally for every module:

* **CHK040** — an observe-off module contains no ``_obs*`` probe
  identifiers anywhere, and a trace-off module contains no ``_prof*``
  guest-PC probe identifiers (the :mod:`repro.prof` hit counters).
* **CHK041** — a hostops-off module contains no ``_hops`` counter
  plumbing; a hostops-on module has all its static cost placeholders
  resolved to constants (an unresolved ``__BODY_COST_n__`` would crash
  at run time, or worse, silently count nothing).
"""

from __future__ import annotations

import ast
import re

from repro.check.model import ModuleModel
from repro.diag.core import Diagnostic

#: Matches the synthesizer's unresolved static-cost placeholders
#: (kept in sync with ``repro.synth.synthesizer._PLACEHOLDER``).
_PLACEHOLDER = re.compile(
    r"__(?:EP_COST(?:_\d+)?|BODY_COST_\d+|SBODY_COST_\d+_\d+)__"
)

_OBS_PREFIX = "_obs"
_PROF_PREFIX = "_prof"


def check_residue(model: ModuleModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    _check_obs_residue(model, diags)
    _check_trace_residue(model, diags)
    _check_hostops_residue(model, diags)
    return diags


def _check_obs_residue(model: ModuleModel, diags: list[Diagnostic]) -> None:
    if model.options.observe:
        return
    for node in ast.walk(model.tree):
        name = _identifier(node)
        if name is not None and name.startswith(_OBS_PREFIX):
            diags.append(
                model.diagnostic(
                    "CHK040",
                    f"observability probe residue {name!r} in a module "
                    f"synthesized with observe=False",
                    node=node,
                )
            )
            return  # the first occurrence identifies the defect


def _check_trace_residue(model: ModuleModel, diags: list[Diagnostic]) -> None:
    if getattr(model.options, "trace", False):
        return
    for node in ast.walk(model.tree):
        name = _identifier(node)
        if name is not None and name.startswith(_PROF_PREFIX):
            diags.append(
                model.diagnostic(
                    "CHK040",
                    f"guest-PC profiling probe residue {name!r} in a module "
                    f"synthesized with trace=False",
                    node=node,
                )
            )
            return


def _check_hostops_residue(model: ModuleModel, diags: list[Diagnostic]) -> None:
    if not model.options.hostops:
        for node in ast.walk(model.tree):
            name = _identifier(node)
            if name == "_hops" or (name and _PLACEHOLDER.fullmatch(name)):
                diags.append(
                    model.diagnostic(
                        "CHK041",
                        f"host-op cost residue {name!r} in a module "
                        f"synthesized with hostops=False",
                        node=node,
                    )
                )
                return
        return
    match = _PLACEHOLDER.search(model.source)
    if match:
        lineno = model.source.count("\n", 0, match.start()) + 1
        diags.append(
            model.diagnostic(
                "CHK041",
                f"unresolved static-cost placeholder {match.group(0)!r} "
                f"in a hostops module",
                lineno=lineno,
            )
        )


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
