"""Tests for the Baugh-Wooley multiplier netlist (chapter 5, Figure 5.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.multiplier import (
    build_baugh_wooley,
    cell_type_grid,
    from_bits,
    multiply,
    multiply_many,
    reference_product,
    to_bits,
    to_signed,
)


class TestBitHelpers:
    def test_to_signed(self):
        assert to_signed(0b1111, 4) == -1
        assert to_signed(0b0111, 4) == 7
        assert to_signed(0b1000, 4) == -8

    def test_to_bits_round_trip(self):
        for value in range(-8, 8):
            assert to_signed(from_bits(to_bits(value, 4)), 4) == value

    @given(st.integers(-128, 127))
    def test_round_trip_8bit(self, value):
        assert to_signed(from_bits(to_bits(value, 8)), 8) == value


class TestCellTypeGrid:
    def test_type_ii_count(self):
        """(m-1) + (n-1) type II cells — the edge personalisation."""
        for m, n in [(2, 2), (4, 4), (3, 6)]:
            grid = cell_type_grid(m, n)
            count = sum(row.count("II") for row in grid)
            assert count == (m - 1) + (n - 1)

    def test_corner_is_type_i(self):
        """The sign-sign corner is type I ('except for the cell at the
        lower left corner')."""
        grid = cell_type_grid(4, 4)
        assert grid[3][3] == "I"

    def test_edges_are_type_ii(self):
        grid = cell_type_grid(4, 4)
        assert grid[0][3] == "II"  # sign column, non-sign row
        assert grid[3][0] == "II"  # sign row, non-sign column
        assert grid[0][0] == "I"


class TestCombinationalCorrectness:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (2, 5), (5, 2), (3, 4)])
    def test_exhaustive(self, m, n):
        net = build_baugh_wooley(m, n)
        for a in range(-(1 << (m - 1)), 1 << (m - 1)):
            for b in range(-(1 << (n - 1)), 1 << (n - 1)):
                assert multiply(net, a, b, m, n) == reference_product(a, b, m, n)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=60, deadline=None)
    def test_random_8x8(self, a, b):
        net = _NET8
        assert multiply(net, a, b, 8, 8) == reference_product(a, b, 8, 8)

    def test_extremes_16x16(self):
        net = build_baugh_wooley(16, 16)
        for a in (-32768, -1, 0, 1, 32767):
            for b in (-32768, -1, 0, 1, 32767):
                assert multiply(net, a, b, 16, 16) == reference_product(a, b, 16, 16)


_NET8 = build_baugh_wooley(8, 8)


class TestStructure:
    def test_cell_counts(self):
        net = build_baugh_wooley(4, 6)
        # 4*6 carry-save positions: one sum + one carry cell each.
        assert net.count_kind("csI") + net.count_kind("csII") == 24
        assert net.count_kind("cpa") == 4
        assert net.count_kind("pp") == 24

    def test_type_ii_matches_grid(self):
        net = build_baugh_wooley(5, 7)
        assert net.count_kind("csII") == (5 - 1) + (7 - 1)

    def test_output_width(self):
        net = build_baugh_wooley(6, 4)
        assert sorted(net.outputs) == sorted(f"p{k}" for k in range(10))

    def test_critical_path_grows_linearly(self):
        # n carry-save rows + m CPA ripple cells + the AND-gate level.
        assert build_baugh_wooley(4, 4).critical_path() == 9
        assert build_baugh_wooley(8, 8).critical_path() == 17

    def test_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            build_baugh_wooley(1, 4)

    def test_no_combinational_cycles(self):
        net = build_baugh_wooley(6, 6)
        order = net.topological_order()
        assert len(order) == len(net.cells)


class TestNetlistSubstrate:
    def test_duplicate_names_rejected(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")
        net.add_cell("c", lambda: 0, [])
        with pytest.raises(ValueError):
            net.add_cell("c", lambda: 0, [])

    def test_cycle_detection(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_cell("x", lambda v: v, [("cell", "y")])
        net.add_cell("y", lambda v: v, [("cell", "x")])
        with pytest.raises(ValueError):
            net.topological_order()

    def test_const_inputs(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_cell("one", lambda v: v, [Netlist.const(1)])
        net.set_output("o", ("cell", "one"))
        assert net.evaluate({})["o"] == 1


def multiply_oracle(net, a, b, m, n):
    """One vector at a time, masking every cell to a bit: the
    per-pair golden evaluation the lane-packed pass replaced."""
    values = {}
    for index, bit in enumerate(to_bits(a, m)):
        values[("input", f"a{index}")] = bit
    for index, bit in enumerate(to_bits(b, n)):
        values[("input", f"b{index}")] = bit
    values[("const", 0)], values[("const", 1)] = 0, 1
    for name in net.topological_order():
        cell = net.cells[name]
        values[("cell", name)] = cell.function(*[values[r] for r in cell.inputs]) & 1
    raw = from_bits([values[net.outputs[f"p{k}"]] for k in range(m + n)])
    return to_signed(raw, m + n)


def all_pairs(m, n):
    return [(a, b) for a in range(1 << m) for b in range(1 << n)]


class TestLanePackedEvaluation:
    """``multiply_many`` evaluates every pair in one bitwise pass; it
    must agree with per-pair evaluation lane for lane."""

    @pytest.mark.parametrize(
        "m, n", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (5, 3), (3, 6)]
    )
    def test_exhaustive_equals_per_pair(self, m, n):
        net = build_baugh_wooley(m, n)
        pairs = all_pairs(m, n)
        packed = multiply_many(net, pairs, m, n)
        assert packed == [multiply_oracle(net, a, b, m, n) for a, b in pairs]
        assert packed == [reference_product(a, b, m, n) for a, b in pairs]

    @pytest.mark.parametrize("size", [8, 16])
    def test_sampled_equals_per_pair(self, size):
        import random

        rng = random.Random(size)
        top = (1 << size) - 1
        pairs = [(0, 0), (top, top), (1 << (size - 1), 1 << (size - 1)), (top, 1)]
        pairs += [(rng.randrange(top + 1), rng.randrange(top + 1)) for _ in range(300)]
        net = build_baugh_wooley(size, size)
        assert multiply_many(net, pairs, size, size) == [
            multiply_oracle(net, a, b, size, size) for a, b in pairs
        ]

    def test_negative_operands_are_taken_mod_width(self):
        net = build_baugh_wooley(4, 4)
        assert multiply_many(net, [(-3, 5), (-8, -8), (13, 3)], 4, 4) == [-15, 64, -9]

    def test_no_pairs(self):
        assert multiply_many(build_baugh_wooley(3, 3), [], 3, 3) == []

    def test_lanes_mask_constants_and_outputs(self):
        from repro.multiplier import Netlist

        net = Netlist()
        a = net.add_input("a")
        net.set_output("one", Netlist.const(1))
        net.set_output("nand", net.add_cell("n", lambda x, y: ~(x & y), [a, Netlist.const(1)]))
        outputs = net.evaluate({"a": 0b0110}, lanes=4)
        assert outputs == {"one": 0b1111, "nand": 0b1001}
        assert net.evaluate({"a": 1}) == {"one": 1, "nand": 0}

    @pytest.mark.parametrize(
        "cell, function",
        [
            ("cs_1_2", lambda x, y, z: x | y | z),      # sum -> OR
            ("cc_2_1", lambda x, y, z: x & y & z),      # carry -> AND3
            ("pp_1_1", lambda x, y: ~(x & y)),          # type I -> type II
            ("cpc_1", lambda x, y, z: x ^ y),           # CPA carry dropped
        ],
    )
    def test_mutated_golden_fails_on_the_same_pairs(self, cell, function):
        net = build_baugh_wooley(4, 4)
        net.cells[cell].function = function
        pairs = all_pairs(4, 4)
        packed = multiply_many(net, pairs, 4, 4)
        per_pair = [multiply_oracle(net, a, b, 4, 4) for a, b in pairs]
        assert packed == per_pair

        def failing(products):
            return {
                pair for pair, got in zip(pairs, products)
                if got != reference_product(*pair, 4, 4)
            }

        assert failing(packed) == failing(per_pair)
        assert failing(packed)

    def test_verify_multiplier_reports_the_per_pair_failures(self, monkeypatch):
        """A golden model with one sum cell swapped: ``verify_multiplier``
        lists the same failure strings, in the same order, as checking
        each pair on its own."""
        import repro.multiplier.baughwooley as baughwooley
        from repro.multiplier import generate_multiplier
        from repro.verify import verify_multiplier

        def mutated(m, n):
            net = build_baugh_wooley(m, n)
            net.cells["cs_1_1"].function = lambda x, y, z: x | y | z
            return net

        cell = generate_multiplier(3, 3)
        monkeypatch.setattr(baughwooley, "build_baugh_wooley", mutated)
        report = verify_multiplier(cell, mode="sim")
        net = mutated(3, 3)
        expected = []
        for a, b in all_pairs(3, 3):
            got, want = multiply_oracle(net, a, b, 3, 3), reference_product(a, b, 3, 3)
            if got != want:
                expected.append(f"{a} x {b}: got {got}, want {want}")
        assert expected
        assert report.failures == expected
        assert report.exhaustive and report.vectors_checked == 64


def test_pipelined_simulator_outputs_stay_bits():
    """The cell functions are bitwise (``~`` included); the register
    simulator keeps one lane, so every output is still 0 or 1."""
    from repro.multiplier import PipelinedSimulator, retime

    net = build_baugh_wooley(4, 4)
    for beta in (1, 2, None):
        simulator = PipelinedSimulator(retime(net, beta))
        stream = [
            {**{f"a{i}": bit for i, bit in enumerate(to_bits(a, 4))},
             **{f"b{j}": bit for j, bit in enumerate(to_bits(b, 4))}}
            for a, b in all_pairs(4, 4)
        ]
        outputs = simulator.run_stream(stream)
        for (a, b), out in zip(all_pairs(4, 4), outputs):
            assert set(out.values()) <= {0, 1}
            raw = from_bits([out[f"p{k}"] for k in range(8)])
            assert to_signed(raw, 8) == reference_product(a, b, 4, 4)
