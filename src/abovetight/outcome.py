"""Shared decision outcomes and refusal errors for the three deciders."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, TypeVar

R = TypeVar("R", bound="Record")


class Record:
    """Base of the frozen record types whose checks values already checked may skip.

    ``_unchecked`` builds such a record from its fields by keyword with no
    ``__init__`` or ``__post_init__`` call, so the caller vouches for what
    those would check; each subclass states that invariant in its docstring.
    Tuple fields are built from lists or tuples, not iterators: in CPython
    3.11 ``tuple()`` of an iterator grows and then shrinks the tuple, which
    moves small tuples between the per-size free lists, and over a thousand
    small digraphs that held 0.3 MB more.
    """

    @classmethod
    def _unchecked(cls: type[R], **fields: Any) -> R:
        record = object.__new__(cls)
        vars(record).update(fields)
        return record


class Verdict(Enum):
    """How a parameterized decision was settled."""

    YES_BY_BOUND = "YES_BY_BOUND"
    YES_WITNESS = "YES_WITNESS"
    NO = "NO"
    KERNEL = "KERNEL"


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of a decide_* call.

    ``witness`` is present exactly for YES_WITNESS verdicts; ``kernel``
    carries the reduced instance when exact solving was refused because
    the kernel exceeds the configured cap. ``diagnostics`` echoes every
    threshold that was compared, so bound-based verdicts are auditable.
    """

    verdict: Verdict
    witness: Any = None
    kernel: Any = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.verdict is Verdict.YES_WITNESS):
            raise ValueError("witness must be present iff verdict is YES_WITNESS")
        if self.kernel is not None and self.verdict is not Verdict.KERNEL:
            raise ValueError("kernel payload is only valid for KERNEL outcomes")


class CapExceeded(Exception):
    """Exact solving refused: the instance is larger than the configured cap.

    ``report`` holds the limit and the count that passed it, under the keys
    a KERNEL record echoes them with.
    """

    def __init__(self, message: str, report: dict[str, int]):
        super().__init__(message)
        self.report = report


def check_cap(refused: str, needed: int, items: str, cap: int, keys: tuple[str, ...] = ()) -> None:
    """Raise CapExceeded when ``needed`` items exceed ``cap``.

    ``keys`` names the limit and the count in the report, for a check whose
    refusal a KERNEL record echoes; without them the report is empty.
    """
    if needed > cap:
        message = "%s refused: %d %s exceed cap %d" % (refused, needed, items, cap)
        raise CapExceeded(message, dict(zip(keys, (cap, needed))))


class RestrictionViolated(Exception):
    """A decider's structural precondition does not hold for the instance."""
