"""Weighted step sets for one-dimensional lattice paths, which enter the
tree machinery as kind lists of one-child nodes (``StepSet.kinds``)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateStepSet
from .series import as_fraction


@dataclass(frozen=True)
class StepSet:
    """Distinct integer jumps with positive rational weights."""

    steps: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        jumps = [b for b, _ in self.steps]
        if len(set(jumps)) != len(jumps):
            raise ValueError("duplicate jumps in step set")
        for b, w in self.steps:
            if w <= 0:
                raise ValueError(f"weight for jump {b} must be positive")

    @classmethod
    def make(cls, pairs) -> StepSet:
        norm = tuple(sorted((int(b), as_fraction(w)) for b, w in pairs))
        return cls(norm)

    @property
    def max_down(self) -> int:
        """c = -(most negative jump); 0 when no negative jump exists."""
        return max((-b for b, _ in self.steps if b < 0), default=0)

    @property
    def max_up(self) -> int:
        """d = largest jump; 0 when no positive jump exists."""
        return max((b for b, _ in self.steps if b > 0), default=0)

    def require_two_sided(self) -> None:
        if self.max_down == 0 or self.max_up == 0:
            raise DegenerateStepSet(
                "step set needs at least one negative and one positive jump"
            )

    @property
    def kinds(self) -> list[tuple[Fraction, tuple[int]]]:
        """The kind list [(w_b, (b,))]: each step one node with one child at offset b."""
        return [(w, (b,)) for b, w in self.steps]


def parse_step_set(text: str) -> StepSet:
    """Parse "b:w,b:w,..." with exact rational weights like "2" or "3/7"."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"step {chunk!r} is not of the form jump:weight")
        b_txt, w_txt = chunk.split(":", 1)
        pairs.append((int(b_txt.strip()), as_fraction(w_txt.strip())))
    if not pairs:
        raise ValueError("empty step set")
    return StepSet.make(pairs)
