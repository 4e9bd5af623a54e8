"""Exact integer value->count histograms.

The one carrier type shared by the Walsh-spectrum, correlation, imbalance
and code-weight distributions.  Counts are Python ints, so they never
overflow; the JSON form keeps counts as decimal strings for the benefit of
64-bit consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ValueHistogram:
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.counts = {int(v): int(c) for v, c in self.counts.items() if c}
        if self.counts and min(self.counts.values()) < 0:
            raise ValueError("histogram counts must be positive")

    @classmethod
    def from_array(cls, values, times: int = 1) -> "ValueHistogram":
        """Every value in the integer array, counted `times` times over."""
        vals, cnts = np.unique(values, return_counts=True)
        return cls({v: c * times for v, c in zip(vals.tolist(), cnts.tolist())})

    def entries(self) -> list[tuple[int, int]]:
        """(value, count) pairs, values strictly decreasing."""
        return sorted(self.counts.items(), key=lambda vc: -vc[0])

    def total(self) -> int:
        return sum(self.counts.values())

    def add_value(self, value: int, times: int = 1) -> None:
        c = self.counts.get(value, 0) + times
        if c:
            self.counts[value] = c
        else:
            self.counts.pop(value, None)

    def merge(self, other: "ValueHistogram", times: int = 1) -> "ValueHistogram":
        for v, c in other.counts.items():
            self.add_value(v, c * times)
        return self

    def shifted(self, d: int) -> "ValueHistogram":
        return ValueHistogram({v + d: c for v, c in self.counts.items()})

    def max_abs_value(self) -> int:
        if not self.counts:
            raise ValueError("empty histogram")
        return max(abs(v) for v in self.counts)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"value": v, "count": str(c)} for v, c in self.entries()
            ]
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueHistogram):
            return NotImplemented
        return self.counts == other.counts
