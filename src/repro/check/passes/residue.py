"""Zero-overhead residue (CHK040).

The observability layer (:mod:`repro.obs`) and the guest-PC profiling
probes promise *zero overhead when off*: a module synthesized without
``observe``/``trace`` must be byte-identical to one that never heard of
those features.  The runtime tests sample that promise; this pass proves
it structurally for every module:

* **CHK040** — an observe-off module contains no ``_obs*`` probe
  identifiers anywhere, and a trace-off module contains no ``_prof*``
  guest-PC probe identifiers (the :mod:`repro.prof` hit counters).
"""

from __future__ import annotations

import ast

from repro.check.model import ModuleModel
from repro.diag.core import Diagnostic

_OBS_PREFIX = "_obs"
_PROF_PREFIX = "_prof"


def check_residue(model: ModuleModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    _check_obs_residue(model, diags)
    _check_trace_residue(model, diags)
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


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
