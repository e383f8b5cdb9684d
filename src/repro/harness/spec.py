"""Declarative experiment grids: sweep specs and sweep points.

A :class:`SweepSpec` declares an experiment as a parameter grid — the
Cartesian product of named axes on top of a set of base parameters —
instead of hand-written nested loops.  Expanding the spec yields
:class:`SweepPoint` instances: frozen, hashable, JSON-representable
parameter assignments that a point runner (see
:mod:`repro.harness.runners`) can execute in any process, in any order,
with bit-identical results.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.common.canonical import canonical_hash


#: Tags a frozen mapping so it cannot be confused with a frozen list of
#: two-element lists when thawing back to JSON form.
_MAP_TAG = "\x00map\x00"


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to hashable tuple forms."""
    if isinstance(value, Mapping):
        return (
            _MAP_TAG,
            tuple(sorted((str(k), _freeze(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"sweep parameters must be JSON-representable, got {type(value).__name__}"
    )


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON output (tuples become lists)."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _MAP_TAG and isinstance(value[1], tuple):
            return {key: _thaw(val) for key, val in value[1]}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One cell of an experiment grid: a runner kind plus its parameters.

    ``params`` is a sorted tuple of (name, frozen-value) pairs;
    ``key`` is the content hash of the canonical JSON form.  Identity
    (``==``/``hash``) is by kind and key, *not* by Python equality of
    the parameter values — ``1``, ``1.0``, and ``True`` compare equal
    in Python but serialize differently, and the cache is addressed by
    the serialized form, so the two notions must agree.  Build points
    with :meth:`make` rather than the raw constructor.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = field(compare=False)
    key: str = field(default="", repr=False)

    @classmethod
    def make(cls, kind: str, params: Mapping[str, Any]) -> "SweepPoint":
        frozen = tuple(sorted((str(k), _freeze(v)) for k, v in params.items()))
        thawed = {key: _thaw(value) for key, value in frozen}
        content = canonical_hash({"kind": kind, "params": thawed})
        return cls(kind=kind, params=frozen, key=content)

    def as_dict(self) -> dict[str, Any]:
        """The parameters as a plain JSON-ready dict (tuples -> lists)."""
        return {key: _thaw(value) for key, value in self.params}

    def __getitem__(self, key: str) -> Any:
        for name, value in self.params:
            if name == key:
                return _thaw(value)
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"SweepPoint({self.kind}: {inner})"


@dataclass(slots=True)
class SweepSpec:
    """An experiment declared as a parameter grid.

    * ``kind``   — which registered point runner executes each cell,
    * ``axes``   — name -> values; the grid is their Cartesian product,
      iterated in declaration order (first axis varies slowest),
    * ``base``   — parameters shared by every point,
    * ``derive`` — optional per-point hook returning extra parameters
      computed from the cell (e.g. per-app iteration counts); applied at
      expansion time, so workers only ever see concrete parameters.
    """

    kind: str
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    derive: Callable[[dict[str, Any]], Mapping[str, Any]] | None = None

    def points(self) -> list[SweepPoint]:
        """Expand the grid into concrete sweep points."""
        names = list(self.axes)
        for name in names:
            if not list(self.axes[name]):
                raise ValueError(f"axis {name!r} has no values")
        out: list[SweepPoint] = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            params: dict[str, Any] = dict(self.base)
            params.update(zip(names, combo))
            if self.derive is not None:
                params.update(self.derive(dict(params)))
            out.append(SweepPoint.make(self.kind, params))
        return out

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points())

    def __len__(self) -> int:
        return len(self.points())
