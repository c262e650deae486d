"""Tests for the constraint system and the Bellman-Ford solver (§6.3/6.4.2)."""

import pytest

from repro.compact import (
    Constraint,
    ConstraintSystem,
    available_solvers,
    get_solver,
    solve_longest_path,
)
from repro.core.errors import InfeasibleConstraintsError


def chain_system(n, gap=3, shuffle=False):
    """x0 <- x1 <- ... <- x_{n-1}, each at least `gap` apart."""
    system = ConstraintSystem()
    for i in range(n):
        system.add_variable(f"x{i}", initial=i * gap)
    order = list(range(n - 1))
    if shuffle:
        order = order[::-1]
    for i in order:
        system.add(f"x{i}", f"x{i+1}", gap)
    return system


def equality_system():
    """Zero-slack cycles: a rigid cluster pinned by require_equal."""
    system = ConstraintSystem()
    for name in "abcd":
        system.add_variable(name)
    system.require_equal("a", "b", 5)
    system.require_equal("b", "c", -2)
    system.add("a", "d", 7)
    system.add("c", "d", 1)
    return system


def slack_cycle_system():
    """A negative-slack cycle: b may float within [a, a+4]."""
    system = ConstraintSystem()
    system.add_variable("a", initial=0)
    system.add_variable("b", initial=9)
    system.add_variable("c", initial=20)
    system.add("a", "b", 0)
    system.add("b", "a", -4)
    system.add("b", "c", 6)
    return system


def pitch_system():
    system = ConstraintSystem()
    system.add_variable("a", initial=0)
    system.add_variable("b", initial=10)
    system.add_variable("c", initial=25)
    system.add_pitch("lam")
    system.add("a", "b", 4, pitch_terms=(("lam", -1),))
    system.add("b", "c", 6)
    system.add("a", "c", 3, pitch_terms=(("lam", 1),))
    return system


#: every ConstraintSystem fixture in this module, with solve kwargs
SOLVER_FIXTURES = [
    ("chain", lambda: chain_system(10), {}),
    ("chain-shuffled", lambda: chain_system(25, shuffle=True), {}),
    ("chain-lower-bound", lambda: chain_system(8), {"lower_bound": 5}),
    ("chain-unsorted", lambda: chain_system(25, shuffle=True), {"sort_edges": False}),
    ("equalities", equality_system, {}),
    ("slack-cycle", slack_cycle_system, {}),
    ("negative-weight", lambda: negative_weight_system(), {}),
    ("fixed-pitch", pitch_system, {"pitches": {"lam": 2}}),
]


def negative_weight_system():
    system = ConstraintSystem()
    system.add_variable("a")
    system.add_variable("b")
    system.add("a", "b", -2)
    return system


class TestConstraintSystem:
    def test_variables_and_constraints(self):
        system = chain_system(4)
        assert len(system.variables) == 4
        assert len(system) == 3

    def test_endpoints_must_exist(self):
        system = ConstraintSystem()
        system.add_variable("a")
        with pytest.raises(KeyError):
            system.add("a", "ghost", 1)

    def test_require_equal(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.require_equal("a", "b", 5)
        stats = solve_longest_path(system)
        assert stats.solution["b"] - stats.solution["a"] == 5

    def test_check_reports_violations(self):
        system = chain_system(3)
        good = {"x0": 0, "x1": 3, "x2": 6}
        bad = {"x0": 0, "x1": 2, "x2": 6}
        assert system.check(good) == []
        assert len(system.check(bad)) == 1

    def test_pitch_terms_flagged(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add_pitch("lam")
        system.add("a", "b", 2, pitch_terms=(("lam", -1),))
        assert system.has_pitch_terms()

    def test_extend_appends_the_rows_add_would(self):
        by_name = ConstraintSystem()
        by_index = ConstraintSystem()
        for system in (by_name, by_index):
            system.add_variables(["a", "b", "c"], [0, 4, 9])
        by_name.add("a", "b", 2, kind="spacing")
        by_name.add("b", "c", 3, kind="spacing")
        by_name.add("c", "a", -7, kind="width")
        by_index.extend([0, 1], [1, 2], [2, 3], "spacing")
        by_index.extend([2], [0], [-7], [by_index.kind_code("width")])
        assert by_index.constraints == by_name.constraints
        assert by_index.initial == [0, 4, 9]
        assert solve_longest_path(by_index).solution == solve_longest_path(by_name).solution

    def test_extend_rejects_undeclared_indices_and_ragged_columns(self):
        system = ConstraintSystem()
        system.add_variables(["a", "b"], [0, 0])
        with pytest.raises(KeyError):
            system.extend([0], [2], [1])
        with pytest.raises(KeyError):
            system.extend([-1], [1], [1])
        with pytest.raises(ValueError):
            system.extend([0, 1], [1], [1, 1])
        with pytest.raises(ValueError):
            system.extend([0], [1], [1], [99])
        assert len(system) == 0

    def test_bulk_variables_must_be_fresh_and_distinct(self):
        system = ConstraintSystem()
        system.add_variable("a")
        for names in (["b", "b"], ["b", "a"]):
            with pytest.raises(ValueError):
                system.add_variables(names, [0, 0])
        assert system.variables == ["a"] and system.index_of("a") == 0
        assert system.add_variables(["b", "c"], [1, 2]) == 1
        assert system.index_of("c") == 2


class TestSolver:
    def test_minimal_solution(self):
        stats = solve_longest_path(chain_system(5, gap=4))
        assert [stats.solution[f"x{i}"] for i in range(5)] == [0, 4, 8, 12, 16]

    def test_all_constraints_satisfied(self):
        system = chain_system(10)
        stats = solve_longest_path(system)
        assert system.check(stats.solution) == []

    def test_lower_bound(self):
        stats = solve_longest_path(chain_system(3), lower_bound=7)
        assert min(stats.solution.values()) == 7

    def test_positive_cycle_detected(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", 5)
        system.add("b", "a", -3)  # b - a >= 5 and a - b >= -3: a <= b - 5, a >= b - 3
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system)

    def test_negative_weights_feasible(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", -2)  # b may sit left of a
        stats = solve_longest_path(system)
        assert system.check(stats.solution) == []

    def test_fixed_pitch_substitution(self):
        system = ConstraintSystem()
        system.add_variable("a", initial=0)
        system.add_variable("b", initial=10)
        system.add_pitch("lam")
        system.add("a", "b", 4, pitch_terms=(("lam", -1),))
        stats = solve_longest_path(system, pitches={"lam": 1})
        assert stats.solution["b"] - stats.solution["a"] >= 3

    def test_symbolic_pitch_without_value_rejected(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add_pitch("lam")
        system.add("a", "b", 4, pitch_terms=(("lam", -1),))
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system)


class TestSortedEdgeOptimisation:
    """Section 6.4.2: presorting edges by initial abscissa makes a
    preserved ordering converge in one productive pass."""

    def test_sorted_single_productive_pass(self):
        system = chain_system(100, shuffle=True)
        sorted_stats = solve_longest_path(system, sort_edges=True)
        # One pass does all the work; the second detects the fixpoint.
        assert sorted_stats.passes == 2

    def test_unsorted_needs_many_passes(self):
        system = chain_system(100, shuffle=True)
        unsorted_stats = solve_longest_path(system, sort_edges=False)
        assert unsorted_stats.passes > 2

    def test_same_answer_either_way(self):
        system = chain_system(50, shuffle=True)
        a = solve_longest_path(system, sort_edges=True).solution
        b = solve_longest_path(system, sort_edges=False).solution
        assert a == b

    def test_relaxation_counts(self):
        system = chain_system(20, shuffle=True)
        stats = solve_longest_path(system, sort_edges=True)
        assert stats.relaxations == 19  # each variable settles once


class TestBackendEquivalence:
    """Every registered backend must reproduce the Bellman-Ford
    solutions exactly, fixture by fixture."""

    @pytest.mark.parametrize("backend", available_solvers())
    @pytest.mark.parametrize(
        "label,build,options",
        SOLVER_FIXTURES,
        ids=[label for label, _, _ in SOLVER_FIXTURES],
    )
    def test_identical_solutions(self, backend, label, build, options):
        system = build()
        reference = get_solver("bellman-ford").solve(system, **options)
        stats = get_solver(backend).solve(system, **options)
        assert stats.solution == reference.solution
        assert system.check(
            stats.solution, pitches=options.get("pitches")
        ) == []

    @pytest.mark.parametrize("backend", available_solvers())
    def test_positive_cycle_detected(self, backend):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", 5)
        system.add("b", "a", -3)
        with pytest.raises(InfeasibleConstraintsError):
            get_solver(backend).solve(system)

    @pytest.mark.parametrize("backend", available_solvers())
    def test_positive_cycle_named(self, backend):
        system = ConstraintSystem()
        for name in "abcd":
            system.add_variable(name)
        system.add("a", "b", 4, kind="spacing")
        system.add("b", "c", 1, kind="width")
        system.add("c", "a", -3, kind="connect")
        system.add("c", "d", 9)
        with pytest.raises(InfeasibleConstraintsError) as error:
            get_solver(backend).solve(system)
        cycle = error.value.cycle
        assert sorted((c.source, c.target) for c in cycle) == [
            ("a", "b"), ("b", "c"), ("c", "a"),
        ]
        # In cycle order: each row starts where the previous one ended.
        for before, after in zip(cycle, cycle[1:] + cycle[:1]):
            assert before.target == after.source
        assert sum(c.weight for c in cycle) == 2
        assert all(c in system.constraints for c in cycle)
        message = str(error.value)
        assert "3 constraints around a cycle of total weight +2" in message
        assert "a -> b (spacing +4)" in message and "c -> a (connect -3)" in message

    def test_positive_cycle_names_labels_and_caps_length(self):
        system = ConstraintSystem()
        for index in range(12):
            system.add_variable(f"v{index}")
        system.label_variables(0, 12, lambda offset: f"edge {offset}")
        for index in range(12):
            system.add(f"v{index}", f"v{(index + 1) % 12}", 1)
        with pytest.raises(InfeasibleConstraintsError) as error:
            system.solve()
        message = str(error.value)
        assert len(error.value.cycle) == 12
        assert "total weight +12" in message
        assert "v0 [edge 0]" in message or "v1 [edge 1]" in message
        assert "... 6 more" in message

    @pytest.mark.parametrize("backend", available_solvers())
    def test_positive_self_loop_detected(self, backend):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add("a", "a", 1)
        with pytest.raises(InfeasibleConstraintsError):
            get_solver(backend).solve(system)

    @pytest.mark.parametrize("backend", available_solvers())
    def test_symbolic_pitch_rejected(self, backend):
        system = pitch_system()
        with pytest.raises(InfeasibleConstraintsError):
            get_solver(backend).solve(system)

    @pytest.mark.parametrize("backend", available_solvers())
    def test_via_system_solve(self, backend):
        system = chain_system(6)
        stats = system.solve(solver=backend)
        assert stats.solution == solve_longest_path(system).solution
