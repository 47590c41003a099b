"""What a rule reports: one :class:`Finding` per violation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

#: Severities.  ``error`` findings fail the build; ``warning`` findings
#: are reported but do not affect the exit status.
ERROR = "error"
WARNING = "warning"

_SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Ordered by (path, line, col, rule_id) so reports are stable across
    runs and dict/set iteration orders.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str = field(compare=False)
    severity: str = field(default=ERROR, compare=False)

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    def as_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-ready form (used by the ``--format json`` reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RPR001 error: ...``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )
