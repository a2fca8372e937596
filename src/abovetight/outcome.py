"""Shared decision outcomes, refusal errors and verdict step for the three deciders."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, TypeVar

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
    carries the reduced instance when exact solving was refused: the
    kernel passed the size cap (the deciders' ``cap``: vertices for loalb,
    variables for linalb and rsat) or its counter passed the count budget
    (``gf2.COUNT_BUDGET_BYTES``). ``diagnostics`` echoes every threshold
    that was compared, so bound-based verdicts are auditable.
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
    """A stage refused: a count passed its limit.

    The limits are the exact-solve size cap, the count budget of the
    bit-sliced counters (``gf2.check_counter``) and the sub-clause key
    budget of ``rsat.overlap_histogram``. ``report`` holds the limit and
    the count that passed it, under the keys a KERNEL record echoes them
    with, and any further count the check names.
    """

    def __init__(self, message: str, report: dict[str, int]):
        super().__init__(message)
        self.report = report


def check_cap(refused: str, needed: int, items: str, cap: int, keys: tuple[str, ...] = (), **sizes: int) -> None:
    """Raise CapExceeded when ``needed`` items exceed ``cap``.

    ``keys`` names the limit and the count in the report, for a check whose
    refusal a KERNEL record echoes; ``sizes`` adds further counts to it.
    Without either the report is empty.
    """
    if needed > cap:
        message = "%s refused: %d %s exceed cap %d" % (refused, needed, items, cap)
        raise CapExceeded(message, dict(zip(keys, (cap, needed)), **sizes))


def settle(
    diag: dict[str, Any], kernel: Any, solve: Callable, keys: tuple[str, str], target: int, lift: Callable
) -> DecisionOutcome:
    """The verdict of a decider's exact solve of ``kernel``, once no bound has settled it.

    ``solve()`` gives the best value and a witness over the kernel, and
    ``lift`` widens that witness to the instance's declared size. When the
    solve raises CapExceeded, ``diag`` echoes the report and the verdict is
    KERNEL with ``kernel``. Otherwise ``diag`` records the best value and
    ``target`` under ``keys``; the verdict is NO below the target and
    YES_WITNESS at it or above, the only case that lifts, so a KERNEL or NO
    costs nothing per declared vertex or variable.
    """
    try:
        best, found = solve()
    except CapExceeded as exc:
        diag.update(exc.report)
        return DecisionOutcome(Verdict.KERNEL, kernel=kernel, diagnostics=diag)
    diag.update(zip(keys, (best, target)))
    if best < target:
        return DecisionOutcome(Verdict.NO, diagnostics=diag)
    return DecisionOutcome(Verdict.YES_WITNESS, witness=lift(found), diagnostics=diag)


class RestrictionViolated(Exception):
    """A decider's structural precondition does not hold for the instance."""
