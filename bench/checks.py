"""Operation records, output parsing and the checks shared by the workloads.

An operation either fails (it gave no usable result: an exception, a
non-zero exit, a traceback, or a value outside the range its kind must lie
in) or it gives a usable result, which is then compared with a reference
computation. A usable result that disagrees is a mismatch and makes the
run incorrect; a failure is counted but leaves `correct` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable


class Failed(Exception):
    """The operation gave no usable result."""


class Mismatch(Exception):
    """The operation gave a usable result that disagrees with the reference."""


@dataclass
class CliOp:
    """One `menet` command: argv after the program name, and its check."""

    kind: str
    argv: list[str]
    check: Callable[["CliOutput"], None]
    timed: bool = True


@dataclass
class LibOp:
    """One library call in the warm process, and its check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    timed: bool = True


@dataclass
class CliOutput:
    """Parsed stdout of a command: `key: value` lines and `edge i j` lines."""

    values: dict[str, str] = field(default_factory=dict)
    edges: set[tuple[int, int]] = field(default_factory=set)

    @classmethod
    def parse(cls, text: str) -> "CliOutput":
        out = cls()
        for line in text.splitlines():
            if line.startswith("edge "):
                _, i, j = line.split()
                out.edges.add((int(i), int(j)))
            elif ": " in line:
                key, value = line.split(": ", 1)
                out.values[key] = value
        return out

    def get(self, key: str) -> str:
        if key not in self.values:
            raise Failed(f"no '{key}:' line in the output")
        return self.values[key]


def probability(value) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:  # also rejects nan
        raise Failed(f"probability {value} outside [0, 1]")
    return v


def ratio(value) -> float:
    v = float(value)
    if not (math.isfinite(v) and v >= 0.0):
        raise Failed(f"ratio {value} is not a finite non-negative number")
    return v


def max_probability(value, n: int) -> float:
    """The largest of 2**n probabilities that sum to 1 is at least 2**-n."""
    v = probability(value)
    if not (v > 0.0 and v >= 2.0**-n):
        raise Failed(f"max-likelihood probability {value} below 2^-{n}")
    return v


def near(got: float, want: float, what: str, rel: float = 1e-8) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def same(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def at_least(got: float, floor: float, what: str) -> None:
    if not got >= floor:
        raise Mismatch(f"{what}: got {got!r}, needs >= {floor!r}")
