"""RPR006 — registry-completeness: every algorithm honors codec v3.

WAL recovery rebuilds any algorithm by name: ``durable_config()`` feeds
:func:`repro.core.registry.create_algorithm`, ``pending_state()`` is
what the snapshot codec persists, and ``gauges()`` is what the
observability layer polls after every atomic event.  A registry entry
whose hooks take required arguments (or are missing, or shadowed by
non-callables) only fails on the first crash-recovery or instrumented
run that touches it — long after the refactor that broke it merged.

This is an import-and-inspect rule: it imports the live registry once
per invocation and verifies, for every entry, that

- the class's ``name`` matches its registry key (recovery looks it up
  by the persisted name);
- ``pending_state`` / ``durable_config`` / ``gauges`` exist, are
  callable, and take no required parameters beyond ``self`` (the codec
  and the metrics poller call them bare);
- ``restore_pending_state`` accepts exactly one required argument (the
  decoded state dict);
- ``multi_source`` is a plain bool (kernels branch on it).

Findings anchor at the entry's line in ``core/registry.py`` when that
file is part of the analyzed set.
"""

from __future__ import annotations

import inspect
from typing import Iterator, Optional

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import module_of

_ZERO_ARG_HOOKS = ("pending_state", "durable_config", "gauges")


def _required_params(func: object) -> Optional[int]:
    """Required parameters beyond ``self``; None when uninspectable."""
    try:
        signature = inspect.signature(func)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    required = 0
    for index, parameter in enumerate(signature.parameters.values()):
        if index == 0 and parameter.name == "self":
            continue
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            required += 1
    return required


@register
class RegistryCompletenessRule(Rule):
    rule_id = "RPR006"
    title = "every registry entry implements the codec-v3 hook surface"

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        contexts = analysis.contexts
        registry_context = next(
            (
                context
                for context in contexts
                if module_of(context.path) == ("repro", "core", "registry")
            ),
            None,
        )
        if registry_context is None and not any(
            module_of(context.path)[:1] == ("repro",) for context in contexts
        ):
            return  # the analyzed set does not include the library
        try:
            from repro.core.registry import ALGORITHMS
        except Exception as exc:  # pragma: no cover - import breakage
            yield self._finding(
                registry_context, None, f"cannot import the registry: {exc!r}"
            )
            return
        for name, cls in sorted(ALGORITHMS.items()):
            for message in self._check_entry(name, cls):
                yield self._finding(
                    registry_context, getattr(cls, "__name__", None), message
                )

    def _check_entry(self, name: str, cls: type) -> Iterator[str]:
        label = getattr(cls, "__name__", repr(cls))
        if getattr(cls, "name", None) != name:
            yield (
                f"registry entry {name!r} maps to {label} whose .name is "
                f"{getattr(cls, 'name', None)!r}; recovery rebuilds by the "
                f"persisted name, so they must match"
            )
        if not isinstance(getattr(cls, "multi_source", None), bool):
            yield (
                f"{label}.multi_source must be a plain bool "
                f"(kernels branch on it)"
            )
        for hook in _ZERO_ARG_HOOKS:
            method = getattr(cls, hook, None)
            if method is None or not callable(method):
                yield (
                    f"{label} is missing the codec-v3 hook {hook}(); "
                    f"WAL snapshots and the metrics poller call it bare"
                )
                continue
            required = _required_params(method)
            if required:
                yield (
                    f"{label}.{hook}() takes {required} required "
                    f"argument(s); codec v3 calls it with none"
                )
        restore = getattr(cls, "restore_pending_state", None)
        if restore is None or not callable(restore):
            yield (
                f"{label} is missing restore_pending_state(state); "
                f"recovery cannot rebuild it from a snapshot"
            )
        elif _required_params(restore) != 1:
            yield (
                f"{label}.restore_pending_state must take exactly the "
                f"decoded state dict; recovery passes one argument"
            )

    def _finding(
        self,
        registry_context: Optional[FileContext],
        entry: Optional[str],
        message: str,
    ) -> Finding:
        path, line = "src/repro/core/registry.py", 1
        if registry_context is not None:
            path = registry_context.path
            line = _entry_line(registry_context, entry)
        return Finding(
            path=path,
            line=line,
            col=1,
            rule_id=self.rule_id,
            message=message,
        )


def _entry_line(context: FileContext, class_name: Optional[str]) -> int:
    """Best-effort: the ``ALGORITHMS`` line naming the entry's class."""
    if class_name is not None:
        for index, line in enumerate(context.lines, start=1):
            if f"{class_name}.name:" in line.replace(" ", ""):
                return index
    for index, line in enumerate(context.lines, start=1):
        if "ALGORITHMS" in line:
            return index
    return 1
