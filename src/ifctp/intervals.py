"""Closed real intervals, their center/width form, and the distance to an ideal point.

An interval ``[lo, hi]`` models an uncertain cost; its center is the expected
value and its half-width the uncertainty.  The method prefers whichever cost
has its (center, width) point closer to the ideal point in Euclidean
distance; the reports print that distance for each cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line.

    Construction fails fast on lo > hi: a reversed interval in a cost table is
    a data-entry error, not something to silently repair.  It also fails when
    the center or width overflows a float.  A degenerate interval (lo == hi)
    is a valid crisp value.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lo > hi: [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError(f"interval [{self.lo}, {self.hi}] overflows: center or width is inf")

    @property
    def center(self) -> float:
        return (self.hi + self.lo) / 2.0

    @property
    def width(self) -> float:
        """Half-width; nonnegative by construction."""
        return (self.hi - self.lo) / 2.0

    def __add__(self, other: Interval) -> Interval:
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> Interval:
        """Multiply by a real; a negative factor swaps the endpoints."""
        if factor >= 0:
            return Interval(factor * self.lo, factor * self.hi)
        return Interval(factor * self.hi, factor * self.lo)

    def as_center_width(self) -> CenterWidth:
        return CenterWidth(self.center, self.width)


@dataclass(frozen=True)
class CenterWidth:
    """Interval in center/width form: all points within `width` of `center`."""

    center: float
    width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError(f"center/width must be finite, got <{self.center}, {self.width}>")
        if self.width < 0:
            raise ValueError(f"negative width {self.width} is not a valid uncertainty")

    def as_interval(self) -> Interval:
        return Interval(self.center - self.width, self.center + self.width)


def distance_to_ideal(point: CenterWidth, ideal: CenterWidth) -> float:
    """Euclidean distance between two (center, width) points."""
    return math.hypot(point.center - ideal.center, point.width - ideal.width)

