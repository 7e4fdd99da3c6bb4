"""Structured error taxonomy and accounting for resilient log parsing.

Production telemetry pipelines routinely feed the detector truncated,
interleaved, and garbage records; one corrupt line in a million-event
log must degrade gracefully instead of killing the scan.  This module
defines what :func:`repro.etw.parser.iter_parse` reports when it runs
in a recovering mode (``policy="warn"`` / ``policy="drop"``):

* :class:`ParseErrorKind` — the closed taxonomy of malformed-line
  shapes the parser can classify;
* :class:`ParseIssue` — one classified occurrence (kind, line number,
  message);
* :class:`ParseReport` — per-kind counts, first/last bad line numbers,
  dropped-event count, whether the log ended mid-stack-walk, and a
  per-line accounting whose buckets always sum to the input line count
  (``lines_accounted == total_lines``);
* :class:`ParseWarning` — the warning category emitted per issue under
  ``policy="warn"``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class ParseErrorKind(enum.Enum):
    """Classification of every malformed-line shape the parser handles."""

    #: wrong field count or a non-numeric value in a numeric field
    BAD_FIELD = "bad-field"
    #: a ``STACK`` line with no preceding ``EVENT`` to attach to
    ORPHAN_STACK = "orphan-stack"
    #: a ``STACK`` line whose eid does not match the open event
    EID_MISMATCH = "eid-mismatch"
    #: a non-contiguous frame index (duplicated / dropped stack line)
    FRAME_GAP = "frame-gap"
    #: a record tag that is neither ``EVENT`` nor ``STACK``
    UNKNOWN_TAG = "unknown-tag"
    #: a line that is not valid UTF-8 (reaches the parser as ``bytes``
    #: from :func:`repro.etw.parser.read_log_lines`)
    BAD_ENCODING = "bad-encoding"
    #: the log ended mid-stack-walk (detected at end of input)
    TRUNCATED_TAIL = "truncated-tail"


class ParseWarning(UserWarning):
    """Emitted once per recovered :class:`ParseIssue` under ``policy="warn"``."""


@dataclass(frozen=True)
class ParseIssue:
    """One classified parse error, recovered from or raised."""

    kind: ParseErrorKind
    lineno: int
    message: str


#: the integer fields of a serialized :class:`ParseReport`
_LINE_COUNTERS = (
    "total_lines", "blank_lines", "consumed_lines", "error_lines",
    "discarded_lines", "events_yielded", "events_dropped",
)


def _integer(value, optional: bool = False):
    if type(value) is int or (optional and value is None):
        return value
    raise ValueError(f"{value!r} is not an integer")


def _text(value):
    if type(value) is str:
        return value
    raise ValueError(f"{value!r} is not a string")


#: Cap on retained :class:`ParseIssue` objects so a pathological log
#: cannot balloon the report; counters keep counting past the cap.
MAX_RECORDED_ISSUES = 1000


@dataclass
class ParseReport:
    """What a recovering parse saw, kept, and threw away.

    Line accounting is exhaustive: every input line lands in exactly one
    of ``blank_lines``, ``consumed_lines`` (part of a yielded event),
    ``error_lines`` (the line that triggered a classified issue), or
    ``discarded_lines`` (skipped during resynchronization, or belonging
    to an event that was dropped), so ``lines_accounted`` always equals
    ``total_lines``.
    """

    total_lines: int = 0
    blank_lines: int = 0
    consumed_lines: int = 0
    error_lines: int = 0
    discarded_lines: int = 0

    events_yielded: int = 0
    #: events lost to corruption: partially-built events abandoned after
    #: a stack error plus EVENT-tagged lines that never parsed
    events_dropped: int = 0

    #: True when the input ended mid-stack-walk: either inside an
    #: unrecovered corrupt region, or with a final event whose stack is
    #: shorter than previously observed for its event type
    truncated_tail: bool = False

    counts: Dict[ParseErrorKind, int] = field(default_factory=dict)
    issues: List[ParseIssue] = field(default_factory=list)
    first_bad_lineno: Optional[int] = None
    last_bad_lineno: Optional[int] = None

    # -- recording (parser-facing) ------------------------------------
    def record(self, kind: ParseErrorKind, lineno: int, message: str) -> ParseIssue:
        issue = ParseIssue(kind=kind, lineno=lineno, message=message)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.issues) < MAX_RECORDED_ISSUES:
            self.issues.append(issue)
        if self.first_bad_lineno is None:
            self.first_bad_lineno = lineno
        self.last_bad_lineno = lineno
        return issue

    # -- inspection ---------------------------------------------------
    @property
    def lines_accounted(self) -> int:
        """Sum of the per-line buckets; equals ``total_lines`` always."""
        return (
            self.blank_lines
            + self.consumed_lines
            + self.error_lines
            + self.discarded_lines
        )

    @property
    def n_issues(self) -> int:
        return sum(self.counts.values())

    @property
    def clean(self) -> bool:
        """No issues and no truncated tail."""
        return self.n_issues == 0 and not self.truncated_tail

    def count(self, kind: ParseErrorKind) -> int:
        return self.counts.get(kind, 0)

    def merge(self, other: "ParseReport") -> "ParseReport":
        """Fold another report's accounting into this one (in place).

        Used when a scan aggregates per-source reports — e.g. replaying
        a columnar capture merges the conversion-time report into the
        scan's report.  Line numbers keep their per-source meaning, so
        ``first_bad_lineno``/``last_bad_lineno`` become the min/max over
        the merged sources.
        """
        self.total_lines += other.total_lines
        self.blank_lines += other.blank_lines
        self.consumed_lines += other.consumed_lines
        self.error_lines += other.error_lines
        self.discarded_lines += other.discarded_lines
        self.events_yielded += other.events_yielded
        self.events_dropped += other.events_dropped
        self.truncated_tail = self.truncated_tail or other.truncated_tail
        for kind, n in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + n
        room = MAX_RECORDED_ISSUES - len(self.issues)
        if room > 0:
            self.issues.extend(other.issues[:room])
        for mine, theirs in (
            ("first_bad_lineno", other.first_bad_lineno),
            ("last_bad_lineno", other.last_bad_lineno),
        ):
            if theirs is not None:
                current = getattr(self, mine)
                pick = min if mine.startswith("first") else max
                setattr(
                    self,
                    mine,
                    theirs if current is None else pick(current, theirs),
                )
        return self

    # -- (de)serialization — carried in capture metadata ---------------
    def to_dict(self) -> dict:
        """JSON-compatible dict; inverse of :meth:`from_dict`.

        Issue kinds serialize by their enum value so the document stays
        readable and stable across refactors of the enum member names.
        """
        return {
            "total_lines": self.total_lines,
            "blank_lines": self.blank_lines,
            "consumed_lines": self.consumed_lines,
            "error_lines": self.error_lines,
            "discarded_lines": self.discarded_lines,
            "events_yielded": self.events_yielded,
            "events_dropped": self.events_dropped,
            "truncated_tail": self.truncated_tail,
            "counts": {kind.value: n for kind, n in self.counts.items()},
            "issues": [
                {"kind": issue.kind.value, "lineno": issue.lineno,
                 "message": issue.message}
                for issue in self.issues
            ],
            "first_bad_lineno": self.first_bad_lineno,
            "last_bad_lineno": self.last_bad_lineno,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ParseReport":
        """Inverse of :meth:`to_dict`.  ``doc`` may come from an
        untrusted capture or wire chunk, so every field is type-checked:
        anything :meth:`to_dict` cannot have written raises
        :class:`ValueError`."""
        try:
            if type(doc["truncated_tail"]) is not bool:
                raise ValueError("truncated_tail is not a boolean")
            return cls(
                **{name: _integer(doc[name]) for name in _LINE_COUNTERS},
                truncated_tail=doc["truncated_tail"],
                counts={
                    ParseErrorKind(kind): _integer(n)
                    for kind, n in doc["counts"].items()
                },
                issues=[
                    ParseIssue(
                        kind=ParseErrorKind(issue["kind"]),
                        lineno=_integer(issue["lineno"]),
                        message=_text(issue["message"]),
                    )
                    for issue in doc["issues"]
                ],
                first_bad_lineno=_integer(doc["first_bad_lineno"], True),
                last_bad_lineno=_integer(doc["last_bad_lineno"], True),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(f"malformed parse report: {error!r}") from error

    def summary(self) -> str:
        """One-line human-readable digest for logs and CLIs."""
        parts = [
            f"{self.events_yielded} events",
            f"{self.total_lines} lines",
        ]
        if self.events_dropped:
            parts.append(f"{self.events_dropped} dropped")
        for kind in ParseErrorKind:
            n = self.counts.get(kind, 0)
            if n:
                parts.append(f"{n} {kind.value}")
        if self.truncated_tail:
            parts.append("truncated tail")
        return ", ".join(parts)
