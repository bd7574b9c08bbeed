"""Lightweight counter registry shared by every simulator component.

Two access styles:

* ``counters.incr("mdt_true_violations")`` -- by-name increment, for
  rare events (violations, conflicts, stalls).  One dict lookup per
  event.
* ``cell = counters.cell("sfc_forwards")`` then ``cell.value += 1`` -- an
  *interned counter handle* for per-instruction / per-access hot paths.
  The dict lookup happens once, at component construction; every event
  afterwards is a plain attribute add.

A counter becomes *visible* (``as_dict``/``items``/``in``) once it has
been touched through ``incr``/``set``/``merge``/``from_dict`` or once its
value is nonzero.  A cell that was interned but never bumped therefore
never leaks a spurious zero entry into reports or result manifests --
interning handles is observationally free.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple


class CounterCell:
    """Mutable holder for one counter value.

    Hot paths bind the cell once and bump ``cell.value`` directly,
    replacing a per-event dict lookup with an attribute add.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def __repr__(self) -> str:
        return f"CounterCell({self.value!r})"


class Counters:
    """A named-counter bag with safe rate computation.

    Components increment counters by name
    (``counters.incr("sfc_set_conflicts")``)
    and the harness reads them back for reports.  Missing counters read as
    zero, so report code never needs existence checks.
    """

    __slots__ = ("_cells", "_explicit")

    def __init__(self):
        self._cells: Dict[str, CounterCell] = {}
        #: Names touched through incr/set (visible even at value zero,
        #: matching the behaviour of a plain dict of values).
        self._explicit: Set[str] = set()

    # -- handles ---------------------------------------------------------------

    def cell(self, name: str) -> CounterCell:
        """Intern a counter handle for allocation-free hot-path bumps.

        The cell stays invisible until its value is nonzero, so interning
        never changes reported output.
        """
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = CounterCell()
        return cell

    # -- by-name access --------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = CounterCell()
        cell.value += amount
        self._explicit.add(name)

    def set(self, name: str, value: float) -> None:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = CounterCell()
        cell.value = value
        self._explicit.add(name)

    def get(self, name: str, default: float = 0.0) -> float:
        cell = self._cells.get(name)
        return cell.value if cell is not None else default

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        cell = self._cells.get(name)
        if cell is None:
            return False
        return name in self._explicit or cell.value != 0

    def rate(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` with zero-denominator safety."""
        denom = self.get(denominator)
        if not denom:
            return 0.0
        return self.get(numerator) / denom

    def merge(self, other: "Counters") -> None:
        """Add every counter from ``other`` into this registry."""
        for name, value in other._visible():
            self.incr(name, value)

    # -- export ----------------------------------------------------------------

    def _visible(self) -> List[Tuple[str, float]]:
        explicit = self._explicit
        return [(name, cell.value) for name, cell in self._cells.items()
                if name in explicit or cell.value != 0]

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._visible()))

    def keys(self) -> List[str]:
        """Visible counter names, so ``dict(counters)`` equals
        :meth:`as_dict` and any mapping consumer can read a registry."""
        return [name for name, _ in self._visible()]

    def as_dict(self) -> Dict[str, float]:
        return dict(self._visible())

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "Counters":
        """Rebuild a registry from :meth:`as_dict` output (result cache,
        cross-process experiment results)."""
        counters = cls()
        for name, value in values.items():
            counters.set(name, value)
        return counters

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._visible()))
        return f"Counters({inner})"
