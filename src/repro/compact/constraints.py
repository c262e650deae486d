"""Constraint-graph representation (section 6.3).

One-dimensional compaction in x: the unknowns are the abscissas of the
vertical box edges, plus — for leaf-cell compaction — the pitch
variables lambda_i.  A constraint is

    x_target - x_source >= weight + sum(coefficient * lambda)

Pure difference constraints (no lambda terms) form a graph solvable by
longest-path Bellman-Ford; constraints carrying lambda terms require the
linear-programming treatment of section 6.3 ("cannot be solved by
shortest path algorithms ... because the weights are not all constants").

A :class:`ConstraintSystem` stores its constraints as integer columns —
source index, target index, weight and kind code, one entry per row,
with the rare pitch terms kept in a sparse row map.  Generators append
rows one at a time (:meth:`ConstraintSystem.add`) or as whole index
arrays (:meth:`ConstraintSystem.extend`), and the longest-path backends
relax over the columns directly; :class:`Constraint` objects are built
only on demand (:attr:`ConstraintSystem.constraints`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["Constraint", "ConstraintSystem", "Variable"]

Variable = str


@dataclass(frozen=True)
class Constraint:
    """``x[target] - x[source] >= weight + sum(coef * pitch)``."""

    source: Variable
    target: Variable
    weight: int
    #: pitch-variable coefficients, e.g. {"lam_1": -1}
    pitch_terms: Tuple[Tuple[str, int], ...] = ()
    #: provenance tag for diagnostics ("width", "spacing", "overlap", ...)
    kind: str = ""

    def has_pitch_terms(self) -> bool:
        """Whether this constraint carries a symbolic pitch term."""
        return bool(self.pitch_terms)


class ConstraintSystem:
    """A set of variables, pitch variables, and constraint columns.

    Row ``i`` is ``x[variables[targets[i]]] - x[variables[sources[i]]]
    >= weights[i] + sum(coef * pitch for pitch, coef in
    pitch_terms.get(i, ()))``, tagged ``kind_names[kinds[i]]``.  The
    columns are append-only: write them through :meth:`add`,
    :meth:`require_equal` and :meth:`extend`.
    """

    def __init__(self) -> None:
        self.variables: List[Variable] = []
        self._variable_set: Dict[Variable, int] = {}
        self.pitches: List[str] = []
        #: drawn abscissa per variable index (the sorted-edge solver's order)
        self.initial: List[int] = []
        self.sources: List[int] = []
        self.targets: List[int] = []
        self.weights: List[int] = []
        self.kinds: List[int] = []
        #: row index -> pitch terms, for the rows that carry any
        self.pitch_terms: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        self.kind_names: List[str] = []
        self._kind_codes: Dict[str, int] = {}
        #: (first, stop, labeller) variable ranges for diagnostics
        self._labellers: List[Tuple[int, int, Callable[[int], str]]] = []

    # ------------------------------------------------------------------
    def add_variable(self, name: Variable, initial: int = 0) -> Variable:
        """Declare an edge variable (idempotent); ``initial`` is its
        drawn abscissa, used by the sorted-edge solver heuristic."""
        index = self._variable_set.get(name)
        if index is None:
            self._variable_set[name] = len(self.variables)
            self.variables.append(name)
            self.initial.append(initial)
        else:
            self.initial[index] = initial
        return name

    def add_variables(self, names: Sequence[Variable], initial: Sequence[int]) -> int:
        """Declare ``names`` in bulk; returns the index of the first.

        The names must be fresh and distinct, so they take the
        consecutive indices ``first .. first + len(names) - 1``.
        """
        first = len(self.variables)
        fresh = dict(zip(names, range(first, first + len(names))))
        if len(fresh) != len(names) or not self._variable_set.keys().isdisjoint(fresh):
            raise ValueError("bulk-declared variables must be fresh and distinct")
        self._variable_set.update(fresh)
        self.variables.extend(names)
        self.initial.extend(initial)
        return first

    def add_pitch(self, name: str) -> str:
        """Declare a pitch variable lambda (idempotent)."""
        if name not in self.pitches:
            self.pitches.append(name)
        return name

    def kind_code(self, kind: str) -> int:
        """The integer code of a provenance tag (allocated on first use)."""
        code = self._kind_codes.get(kind)
        if code is None:
            code = self._kind_codes[kind] = len(self.kind_names)
            self.kind_names.append(kind)
        return code

    def add(
        self,
        source: Variable,
        target: Variable,
        weight: int,
        pitch_terms: Iterable[Tuple[str, int]] = (),
        kind: str = "",
    ) -> None:
        """Add ``x[target] - x[source] >= weight + sum(coef * pitch)``."""
        index = self._variable_set
        if source not in index or target not in index:
            raise KeyError("constraint endpoints must be declared variables")
        terms = tuple(pitch_terms)
        if terms:
            self.pitch_terms[len(self.sources)] = terms
        self.sources.append(index[source])
        self.targets.append(index[target])
        self.weights.append(int(weight))
        self.kinds.append(self.kind_code(kind))

    def require_equal(self, a: Variable, b: Variable, offset: int = 0) -> None:
        """Pin ``x[b] - x[a] == offset`` (two inequalities)."""
        self.add(a, b, offset, kind="equal")
        self.add(b, a, -offset, kind="equal")

    def extend(
        self,
        sources,
        targets,
        weights,
        kind: Union[str, Sequence[int]] = "",
    ) -> None:
        """Append one pitch-free row per ``(sources[i], targets[i],
        weights[i])`` — variable *indices*, as int sequences or arrays.

        ``kind`` is one tag for every row, or a per-row sequence of
        :meth:`kind_code` codes.
        """
        sources = _int_list(sources)
        targets = _int_list(targets)
        weights = _int_list(weights)
        if not len(sources) == len(targets) == len(weights):
            raise ValueError("constraint columns must have equal lengths")
        if not sources:
            return
        limit = len(self.variables)
        low, high = min(min(sources), min(targets)), max(max(sources), max(targets))
        if low < 0 or high >= limit:
            raise KeyError("constraint endpoints must be declared variables")
        if isinstance(kind, str):
            kinds = [self.kind_code(kind)] * len(sources)
        else:
            kinds = _int_list(kind)
            known = range(len(self.kind_names))
            if len(kinds) != len(sources) or not set(kinds) <= set(known):
                raise ValueError("per-row kinds must be allocated kind codes")
        self.sources.extend(sources)
        self.targets.extend(targets)
        self.weights.extend(weights)
        self.kinds.extend(kinds)

    def solve(self, solver: Optional[str] = None, **options):
        """Solve this system with a named backend (default Bellman-Ford).

        Convenience front door to :mod:`repro.compact.solvers`: keyword
        options (``sort_edges``, ``lower_bound``, ``pitches``, ``hint``)
        are forwarded to the backend's ``solve``.  Returns the backend's
        :class:`~repro.compact.solvers.SolveStats`.
        """
        from .solvers import get_solver  # deferred: solvers import this module

        return get_solver(solver).solve(self, **options)

    # ------------------------------------------------------------------
    def constraint(self, row: int) -> Constraint:
        """Row ``row`` as a :class:`Constraint` object."""
        variables = self.variables
        return Constraint(
            variables[self.sources[row]],
            variables[self.targets[row]],
            self.weights[row],
            self.pitch_terms.get(row, ()),
            self.kind_names[self.kinds[row]],
        )

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """Every row as a :class:`Constraint`, in row order.

        Built on each access (a read-only snapshot, not the storage —
        write rows through :meth:`add` and :meth:`extend`): for the
        leaf-cell LP, diagnostics and tests, not for hot loops.
        """
        return tuple(self.constraint(row) for row in range(len(self.sources)))

    def has_pitch_terms(self) -> bool:
        """Whether any constraint carries a symbolic pitch term."""
        return bool(self.pitch_terms)

    def index_of(self, variable: Variable) -> int:
        """Declaration position of ``variable`` (stable solver index)."""
        return self._variable_set[variable]

    def label_variables(
        self, first: int, stop: int, labeller: Callable[[int], str]
    ) -> None:
        """Describe variables ``first .. stop - 1`` in diagnostics:
        ``labeller(index - first)`` names what the variable stands for
        (called only when a diagnostic is written)."""
        self._labellers.append((first, stop, labeller))

    def describe(self, index: int) -> str:
        """Variable ``index``'s name plus its registered label, if any."""
        name = self.variables[index]
        for first, stop, labeller in self._labellers:
            if first <= index < stop:
                return f"{name} [{labeller(index - first)}]"
        return name

    def check(self, solution: Dict[Variable, int], pitches: Optional[Dict[str, int]] = None) -> List[Constraint]:
        """Return the constraints *violated* by a candidate solution."""
        pitches = pitches or {}
        variables = self.variables
        violated = []
        for row, (source, target, weight) in enumerate(
            zip(self.sources, self.targets, self.weights)
        ):
            bound = weight
            for pitch, coefficient in self.pitch_terms.get(row, ()):
                bound += coefficient * pitches[pitch]
            if solution[variables[target]] - solution[variables[source]] < bound:
                violated.append(self.constraint(row))
        return violated

    def __len__(self) -> int:
        return len(self.sources)

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem({len(self.variables)} variables,"
            f" {len(self.pitches)} pitches, {len(self.sources)} constraints)"
        )


def _int_list(values) -> List[int]:
    """A column as a plain ``int`` list (numpy arrays via ``tolist``)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else [int(value) for value in values]
