"""One grid shape: an experiment is a spec, its walks are derived.

The paper's whole evaluation (§V, Fig. 8a–i) is one sweep — a product of
named axes × the scale's seeds, averaged over the seed group — and every
later grid (concurrent, hetero-links, locality, durability, chaos,
multicast) kept that shape.  A :class:`Grid` states it once:
the axes, the cell function and the kwargs it takes from the scale, and
how a seed group reduces to a row.  ``cells``, ``assemble`` and ``run``
are all derived from the single :meth:`Grid.points` enumeration, so the
plan and the table cannot disagree (DESIGN.md, "Parallelism contract");
``assemble`` refuses an output list of the wrong length instead of
mislabelling rows.

Adding an experiment is one ``GRID = Grid(...)`` in a driver module plus
one line in :data:`repro.experiments.runall.REGISTRY`; the shape the
paper (or a DESIGN.md contract) promises for its table is declared as
the grid's ``bands``, which the suite judges on every pass.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import overlays
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    default_scale,
    mean,
)
from repro.experiments.parallel import Cell, run_cells

#: A per-column reducer: the seed group's cell outputs -> one table value.
Reducer = Callable[[List[Any]], Any]
#: Resolved axis values, by axis name (a tail also sees its parent's).
Env = Dict[str, tuple]


def mean_of(key: str) -> Reducer:
    """Mean over seeds of a per-seed scalar."""
    return lambda group: mean([out[key] for out in group])


def pooled(key: str) -> Reducer:
    """Mean of the per-seed sample lists concatenated (Fig. 8c–e)."""
    return lambda group: mean([v for out in group for v in out[key]])


def total(key: str) -> Reducer:
    return lambda group: sum(out[key] for out in group)


def peak(key: str) -> Reducer:
    return lambda group: max(out[key] for out in group)


def where(
    key: str,
    keep: Callable[[Any], bool],
    reducer: Callable[[List[Any]], Any] = mean,
    empty: Any = 0.0,
) -> Reducer:
    """``reducer`` over the seeds' values passing ``keep``; ``empty`` if none."""

    def reduce(group: List[Any]) -> Any:
        kept = [out[key] for out in group if keep(out[key])]
        return reducer(kept) if kept else empty

    return reduce


def only(key: str) -> Reducer:
    """The value itself, for grids that run one cell per point."""
    return lambda group: group[0][key]


def const(value: Any) -> Reducer:
    return lambda group: value


def all_sizes(scale: ExperimentScale) -> tuple:
    return scale.sizes


def all_overlays(scale: ExperimentScale) -> List[str]:
    """Every registered overlay, read when the grid is resolved."""
    return overlays.available()


def first_size(scale: ExperimentScale) -> tuple:
    """The default population of every single-N grid."""
    return scale.sizes[:1]


#: The comparisons a band may state.
OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Band:
    """One shape claim about a grid's table: ``value(result) <op> bound``.

    ``value`` reduces the assembled table to the one number the claim is
    about (a worst-case gap, a fitted constant, a count), so the report
    shows the observed figure beside the bound, not just a verdict.
    """

    claim: str
    value: Callable[[ExperimentResult], float]
    op: str
    bound: float

    def check(self, result: ExperimentResult) -> Tuple[str, bool]:
        """The rendered ``band ...`` line and whether the claim holds."""
        observed = self.value(result)
        holds = OPS[self.op](observed, self.bound)
        verdict = "ok" if holds else "FAIL"
        return (
            f"band {self.claim}: {observed:.6g} {self.op} {self.bound:.6g} {verdict}",
            holds,
        )


def gap(
    column: str, left: Mapping[str, Any], right: Mapping[str, Any]
) -> Callable[[ExperimentResult], float]:
    """A band value: the largest ``left - right`` difference in ``column``
    over the two row selections, paired in table order (e.g. BATON's and
    Chord's rows at each N)."""

    def value(result: ExperimentResult) -> float:
        pairs = zip(result.column(column, left), result.column(column, right))
        return max(a - b for a, b in pairs)

    return value


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension.

    ``name`` is both the cell kwarg the value is passed as and the
    keyword ``cells``/``assemble``/``run`` accept to override the values
    (``None`` keeps the default).  ``values`` may be a function of the
    scale; wherever values are given, a scalar means a one-value axis.
    ``quick`` is what ``runall --quick`` sweeps instead.  ``column`` names the row
    column (default: ``name``; ``None`` keeps the axis out of the table —
    a setting such as the population of a single-N grid) and ``label``
    renders a value for it.
    """

    name: str
    values: Any
    quick: Optional[Sequence] = None
    column: Optional[str] = ""
    label: Callable[[Any], Any] = lambda value: value

    @property
    def header(self) -> Optional[str]:
        """The row column this axis fills (``None``: not in the table)."""
        return self.column if self.column is None else self.column or self.name


@dataclass(frozen=True)
class Grid:
    """A declarative experiment: axes × seeds -> cells -> one table.

    Cell kwargs are the point's axis values, the ``scale_kwargs`` fields
    read off the scale, whatever ``derive(scale, env)`` computes, and the
    seed.  Rows come from ``reduce`` (one row per point: axis columns
    plus one reducer per measured column) or, where the table is not one
    row per point, from ``table(result, scale, groups)`` with ``groups``
    the ``(point, seed-group outputs)`` pairs in enumeration order.
    ``columns`` defaults to the axis columns followed by the reducers'.
    ``skip(scale, env, point)`` drops a point from both walks by
    returning a string (a non-empty one becomes a table note — the
    capability filter).  ``tail`` is a second grid whose cells and rows
    follow this one's under the same group and table; it sees this
    grid's resolved axes.  ``seeds`` replaces the scale's seed list.  Two
    grids with the same ``name`` are views over one set of cells.
    ``bands`` are the table's shape claims; ``runall.run_all`` judges
    them on the full suite only, because an axis override (a grid
    subcommand's ``--peers``) can drop the rows a comparison needs.
    """

    name: str
    cell: Callable[..., Any]
    axes: Tuple[Axis, ...] = ()
    scale_kwargs: Tuple[str, ...] = ()
    derive: Optional[Callable[[ExperimentScale, Env], Dict[str, Any]]] = None
    figure: str = ""
    title: Any = ""  # str, or (scale, env) -> str
    columns: Tuple[str, ...] = ()
    expectation: str = ""
    reduce: Mapping[str, Reducer] = field(default_factory=dict)
    table: Optional[Callable[[ExperimentResult, ExperimentScale, list], None]] = None
    skip: Optional[Callable[[ExperimentScale, Env, dict], Optional[str]]] = None
    notes: Any = ()  # strings, or (scale, env) -> strings
    tail: Optional["Grid"] = None
    seeds: Optional[Callable[[ExperimentScale], Sequence[int]]] = None
    bands: Tuple[Band, ...] = ()

    @property
    def quick(self) -> Dict[str, Sequence]:
        """The axis overrides ``runall --quick`` applies."""
        return {a.name: a.quick for a in self.axes if a.quick is not None}

    def resolve(
        self,
        scale: ExperimentScale,
        overrides: Mapping[str, Any],
        inherited: Optional[Env] = None,
    ) -> Env:
        unknown = set(overrides) - {a.name for a in self.axes}
        if unknown:
            raise TypeError(f"{self.name}: no axis named {sorted(unknown)}")
        env = dict(inherited or {})
        for axis in self.axes:
            values = overrides.get(axis.name)
            if values is None:
                values = axis.values
                if callable(values):
                    values = values(scale)
            scalar = not isinstance(values, (list, tuple))
            env[axis.name] = (values,) if scalar else tuple(values)
        return env

    def points(
        self, scale: ExperimentScale, env: Env
    ) -> List[Tuple[dict, Optional[str]]]:
        """THE enumeration: ``(point, skip note or None)`` in row order."""
        names = [a.name for a in self.axes]
        out = []
        for combo in itertools.product(*(env[name] for name in names)):
            point = dict(zip(names, combo))
            out.append((point, self.skip(scale, env, point) if self.skip else None))
        return out

    def labels(self, point: dict) -> Dict[str, Any]:
        """The row columns a point's own axis values fill."""
        return {a.header: a.label(point[a.name]) for a in self.axes if a.header}

    def _seeds(self, scale: ExperimentScale) -> Sequence[int]:
        return self.seeds(scale) if self.seeds else scale.seeds

    def _cells(self, scale: ExperimentScale, env: Env, group: str) -> List[Cell]:
        shared = {name: getattr(scale, name) for name in self.scale_kwargs}
        if self.derive:
            shared.update(self.derive(scale, env))
        plan = [
            Cell(self.cell, {**shared, **point, "seed": seed}, group)
            for point, skipped in self.points(scale, env)
            if skipped is None
            for seed in self._seeds(scale)
        ]
        if self.tail:
            plan += self.tail._cells(scale, self.tail.resolve(scale, {}, env), group)
        return plan

    def _fill(
        self, result: ExperimentResult, scale: ExperimentScale, env: Env, outputs: list
    ) -> None:
        result.notes.extend(
            self.notes(scale, env) if callable(self.notes) else self.notes
        )
        per_point = len(self._seeds(scale))
        groups, index = [], 0
        for point, skipped in self.points(scale, env):
            if skipped is None:
                groups.append((point, outputs[index : index + per_point]))
                index += per_point
            elif skipped:
                result.notes.append(skipped)
        if self.table:
            self.table(result, scale, groups)
        else:
            for point, group in groups:
                measured = {col: fn(group) for col, fn in self.reduce.items()}
                result.add_row(**{**self.labels(point), **measured})
        if self.tail:
            tail_env = self.tail.resolve(scale, {}, env)
            self.tail._fill(result, scale, tail_env, outputs[index:])

    def cells(self, scale: ExperimentScale, **overrides: Any) -> List[Cell]:
        """The grid as schedulable cells, seeds innermost."""
        return self._cells(scale, self.resolve(scale, overrides), self.name)

    def assemble(
        self, scale: ExperimentScale, outputs: Sequence[Any], **overrides: Any
    ) -> ExperimentResult:
        """Build the table from ``cells(scale, **overrides)``'s outputs."""
        env = self.resolve(scale, overrides)
        expected = len(self._cells(scale, env, self.name))
        if len(outputs) != expected:
            raise ValueError(
                f"{self.name}: {len(outputs)} outputs for a grid of {expected} "
                "cells — assemble() needs the axis overrides cells() was given"
            )
        title = self.title(scale, env) if callable(self.title) else self.title
        result = ExperimentResult(
            figure=self.figure,
            title=title,
            columns=list(self.columns)
            or [a.header for a in self.axes if a.header] + list(self.reduce),
            expectation=self.expectation,
        )
        self._fill(result, scale, env, list(outputs))
        return result

    def run(
        self, scale: Optional[ExperimentScale] = None, jobs: int = 1, **overrides: Any
    ) -> ExperimentResult:
        scale = scale or default_scale()
        outputs = run_cells(self.cells(scale, **overrides), jobs=jobs)
        return self.assemble(scale, outputs, **overrides)

    def main(self, **overrides: Any) -> ExperimentResult:
        """``python -m repro.experiments.<driver>``: run and print."""
        result = self.run(**overrides)
        print(result.to_text())
        return result
