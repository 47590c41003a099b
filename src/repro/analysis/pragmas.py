"""Line-level suppression pragmas.

A finding is suppressed when the physical line it points at carries a
pragma comment naming its rule::

    jitter = random.random()  # repro: ignore[RPR002]

Several rules may be listed (``# repro: ignore[RPR002, RPR003]``), and a
bare ``# repro: ignore`` suppresses every rule on that line.  Pragmas are
parsed with :mod:`tokenize` so a pragma-shaped substring inside a string
literal never counts.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Optional

#: The pragma grammar: ``repro: ignore`` with an optional rule list.
_PRAGMA = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]*)\])?")

#: Sentinel rule set meaning "every rule".
ALL_RULES: FrozenSet[str] = frozenset({"*"})


def collect_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> suppressed rule ids for one file's source.

    Unparseable files yield no pragmas (the engine reports the syntax
    error separately, and there is nothing to suppress in a file no rule
    can visit).
    """
    pragmas: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            rules = _parse(token.string)
            if rules is not None:
                pragmas[token.start[0]] = rules
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return pragmas


def _parse(comment: str) -> Optional[FrozenSet[str]]:
    match = _PRAGMA.search(comment)
    if match is None:
        return None
    listed = match.group("rules")
    if listed is None:
        return ALL_RULES
    rules = frozenset(part.strip() for part in listed.split(",") if part.strip())
    # ``# repro: ignore[]`` names no rule: treat as suppress-all, like
    # the bare form, rather than a silent no-op.
    return rules or ALL_RULES


def suppressed(pragmas: Dict[int, FrozenSet[str]], line: int, rule_id: str) -> bool:
    """Whether ``rule_id`` is suppressed on ``line``."""
    rules = pragmas.get(line)
    if rules is None:
        return False
    return rules is ALL_RULES or "*" in rules or rule_id in rules
