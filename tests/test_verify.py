"""Tests for the silicon-verification subsystem (extraction, sim, LVS).

The tentpole coverage: device extraction reads real transistors out of
mask geometry, the switch-level simulator evaluates them correctly,
LVS canonicalization matches structure and catches every local edit,
and the hierarchical tile extractor is LVS-identical to the flat one.
"""

import pytest

from repro import CellDefinition
from repro.compact.cache import CompactionCache
from repro.compact.rules import TECH_A
from repro.pla import (
    TruthTable,
    generate_decoder,
    generate_pla,
    generate_rom,
    intended_decoder_netlist,
    intended_pla_netlist,
    intended_rom_netlist,
)
from repro.verify import (
    ExtractionError,
    SwitchNetlist,
    X,
    compare_netlists,
    extract_netlist,
    extract_netlist_hier,
    simulate,
    verify_cell,
    verify_pla,
)
from repro.verify.driver import pla_layout_netlist

TABLE = TruthTable.parse(
    """
    1-0 | 10
    01- | 11
    -11 | 01
    00- | 10
    """
)


def make_cell(boxes, ports=()):
    cell = CellDefinition("dut")
    for layer, x0, y0, x1, y1 in boxes:
        cell.add_box(layer, x0, y0, x1, y1)
    for name, x, y, layer in ports:
        cell.add_port(name, x, y, layer)
    return cell


class TestDeviceExtraction:
    def test_poly_over_diff_is_one_transistor(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),       # source strip .. drain strip
                ("poly", 4, -2, 6, 4),       # gate crossing it
            ],
            [("s", 0, 1, "diff"), ("d", 10, 1, "diff"), ("g", 5, -2, "poly")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("enh") == 1
        device = netlist.devices[0]
        assert netlist.names_of(device.pins_with_role("g")[0]) == ("g",)
        channel_names = sorted(
            netlist.names_of(net)[0] for net in device.pins_with_role("ch")
        )
        assert channel_names == ["d", "s"]

    def test_implant_marks_depletion(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),
                ("poly", 4, -2, 6, 4),
                ("implant", 4, 0, 6, 2),
            ]
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("dep") == 1
        assert netlist.device_count("enh") == 0

    def test_cut_region_is_connection_not_channel(self):
        """A contact cut suppresses the channel under it (butting contact)."""
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),
                ("poly", 4, 0, 6, 2),        # fully over diff ...
                ("cut", 4, 0, 6, 2),         # ... but it is a contact
            ]
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count() == 0

    def test_cut_connects_layers(self):
        cell = make_cell(
            [
                ("metal1", 0, 0, 10, 2),
                ("poly", 0, 4, 10, 6),
                ("cut", 2, 0, 4, 2),
            ],
            [("m", 0, 1, "metal1"), ("p", 0, 5, "poly")],
        )
        netlist = extract_netlist(cell, TECH_A)
        # metal and the disjoint poly stay separate (no overlap with cut).
        assert netlist.find_net("m") != netlist.find_net("p")
        cell2 = make_cell(
            [
                ("metal1", 0, 0, 10, 2),
                ("poly", 0, 0, 10, 2),
                ("cut", 2, 0, 4, 2),
            ],
            [("m", 0, 1, "metal1"), ("p", 9, 1, "poly")],
        )
        netlist2 = extract_netlist(cell2, TECH_A)
        assert netlist2.find_net("m") == netlist2.find_net("p")

    def test_corner_touch_does_not_conduct(self):
        cell = make_cell(
            [("metal1", 0, 0, 2, 2), ("metal1", 2, 2, 4, 4)],
            [("a", 0, 0, "metal1"), ("b", 4, 4, "metal1")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("a") != netlist.find_net("b")

    def test_edge_touch_conducts(self):
        cell = make_cell(
            [("metal1", 0, 0, 2, 2), ("metal1", 2, 0, 4, 2)],
            [("a", 0, 1, "metal1"), ("b", 4, 1, "metal1")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("a") == netlist.find_net("b")

    def test_channel_with_one_terminal_rejected(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 6, 2),
                ("poly", 4, -2, 8, 4),      # gate at the strip's end
            ]
        )
        with pytest.raises(ExtractionError):
            extract_netlist(cell, TECH_A)

    def test_derived_gate_layer_expands_to_device(self):
        """The compactor's derived ``gate`` layer extracts as poly/diff."""
        cell = make_cell([("gate", 4, 0, 6, 2), ("diff", -4, 0, 12, 2)])
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("enh") == 1


class TestSwitchSimulation:
    @staticmethod
    def inverter():
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, out = netlist.add_net("a"), netlist.add_net("out")
        netlist.add_transistor(a, out, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        return netlist, a, out

    def test_inverter(self):
        netlist, a, out = self.inverter()
        assert simulate(netlist, {a: 1})[out] == 0
        assert simulate(netlist, {a: 0})[out] == 1

    def test_x_gate_propagates_x(self):
        netlist, a, out = self.inverter()
        assert simulate(netlist, {a: X})[out] == X

    def test_nor_gate(self):
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, b, out = (netlist.add_net() for _ in range(3))
        netlist.add_transistor(a, out, gnd)
        netlist.add_transistor(b, out, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        for va in (0, 1):
            for vb in (0, 1):
                got = simulate(netlist, {a: va, b: vb})[out]
                assert got == (0 if (va or vb) else 1)

    def test_series_pulldown(self):
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, b, mid, out = (netlist.add_net() for _ in range(4))
        netlist.add_transistor(a, out, mid)
        netlist.add_transistor(b, mid, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        for va in (0, 1):
            for vb in (0, 1):
                got = simulate(netlist, {a: va, b: vb})[out]
                assert got == (0 if (va and vb) else 1)

    def test_pass_transistor_passes_value(self):
        netlist = SwitchNetlist()
        src, gate, out = (netlist.add_net() for _ in range(3))
        netlist.add_transistor(gate, src, out)
        assert simulate(netlist, {src: 1, gate: 1})[out] == 1
        assert simulate(netlist, {src: 0, gate: 1})[out] == 0
        assert simulate(netlist, {src: 1, gate: 0})[out] == X  # floating

    def test_drive_beats_pull(self):
        """An enhancement path to GND overrides the depletion pull-up."""
        netlist, a, out = self.inverter()
        values = simulate(netlist, {a: 1})
        assert values[out] == 0


class TestLvs:
    def test_identical_netlists_match(self):
        a = intended_pla_netlist(TABLE)
        b = intended_pla_netlist(TABLE)
        assert compare_netlists(a, b).matched

    def test_different_personality_mismatch(self):
        other = TruthTable.parse("1-0 | 10\n01- | 11\n-11 | 01\n001 | 10")
        report = compare_netlists(
            intended_pla_netlist(TABLE), intended_pla_netlist(other)
        )
        assert not report.matched

    def test_gate_channel_swap_caught(self):
        def build(swap):
            netlist = SwitchNetlist()
            vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
            netlist.vdd_nets.add(vdd)
            netlist.gnd_nets.add(gnd)
            a, b, out = (netlist.add_net() for _ in range(3))
            netlist.inputs = [a, b]
            netlist.outputs = [out]
            if swap:
                netlist.add_transistor(out, a, gnd)
            else:
                netlist.add_transistor(a, out, gnd)
            netlist.add_transistor(b, out, gnd)
            netlist.add_transistor(None, out, vdd, depletion=True)
            return netlist

        assert compare_netlists(build(False), build(False)).matched
        assert not compare_netlists(build(True), build(False)).matched

    def test_source_drain_swap_is_not_a_mismatch(self):
        def build(order):
            netlist = SwitchNetlist()
            a, b, g = (netlist.add_net() for _ in range(3))
            netlist.inputs = [g]
            netlist.outputs = [a]
            if order:
                netlist.add_transistor(g, a, b)
            else:
                netlist.add_transistor(g, b, a)
            return netlist

        assert compare_netlists(build(True), build(False)).matched


class TestPlaFamilyClosure:
    """Acceptance: mask geometry -> devices -> logic, end to end."""

    def test_pla_lvs_and_exhaustive_sim(self):
        report = verify_pla(generate_pla(TABLE), table=TABLE, mode="all")
        assert report.ok
        assert report.exhaustive
        assert report.vectors_checked == 2 ** TABLE.num_inputs

    def test_decoder(self):
        report = verify_cell(generate_decoder(3))
        assert report.ok and report.exhaustive

    def test_rom_against_intended_hook(self):
        words = [5, 0, 7, 2, 6, 1]
        rom, table = generate_rom(words, 3)
        netlist = pla_layout_netlist(rom)
        assert compare_netlists(netlist, intended_rom_netlist(words, 3)).matched
        report = verify_cell(rom, table=table)
        assert report.ok

    def test_eight_input_pla_exhaustive(self):
        """The acceptance bound: <= 8 inputs simulate exhaustively."""
        rows = ["1-------", "-0------", "--11----", "----1-0-", "------01"]
        outs = ["10", "01", "11", "10", "01"]
        table = TruthTable(rows, outs)
        report = verify_pla(generate_pla(table), table=table)
        assert report.ok
        assert report.exhaustive and report.vectors_checked == 256

    def test_sampling_beyond_cap(self):
        report = verify_pla(
            generate_pla(TABLE), table=TABLE, max_vectors=4
        )
        assert report.ok
        assert not report.exhaustive
        assert report.vectors_checked == 4

    def test_sim_catches_wrong_table(self):
        lying = TruthTable.parse("1-0 | 01\n01- | 11\n-11 | 01\n00- | 10")
        report = verify_pla(generate_pla(TABLE), table=lying, mode="sim")
        assert not report.ok

    def test_intended_netlist_counts(self):
        golden = intended_pla_netlist(TABLE)
        and_x, or_x = TABLE.crosspoints()
        expected_enh = TABLE.num_inputs + TABLE.num_outputs + and_x + or_x
        expected_dep = (
            TABLE.num_inputs + TABLE.num_terms + 2 * TABLE.num_outputs
        )
        assert golden.device_count("enh") == expected_enh
        assert golden.device_count("dep") == expected_dep

    def test_decoder_intended_matches_layout(self):
        netlist = pla_layout_netlist(generate_decoder(2))
        assert compare_netlists(netlist, intended_decoder_netlist(2)).matched


class TestHierarchicalExtraction:
    def test_lvs_identical_to_flat(self):
        for cell in (generate_pla(TABLE), generate_decoder(3)):
            flat = extract_netlist(cell)
            hier = extract_netlist_hier(cell)
            assert compare_netlists(hier, flat).matched

    def test_rom_equivalence(self):
        rom, _ = generate_rom(list(range(8)), 4)
        assert compare_netlists(
            extract_netlist_hier(rom), extract_netlist(rom)
        ).matched

    def test_cache_hit_gives_same_answer(self):
        cache = CompactionCache()
        pla = generate_pla(TABLE)
        first = extract_netlist_hier(pla, cache=cache)
        assert cache.misses > 0
        second = extract_netlist_hier(pla, cache=cache)
        assert cache.hits > 0
        assert compare_netlists(first, second).matched

    def test_hier_verify_report(self):
        report = verify_pla(generate_pla(TABLE), table=TABLE, hier=True)
        assert report.ok and report.hierarchical

    def test_derived_gate_overhang_stitches_across_seam(self):
        """A derived gate's expanded diffusion reaches past the drawn
        tile frame; the overhang must still stitch to the abutting
        tile (regression: boundary was measured on drawn extent)."""
        from repro import Vec2, NORTH

        a = CellDefinition("a")
        a.add_box("gate", 4, 0, 6, 2)      # expand_gate grows diff by 1
        a.add_box("diff", 0, 0, 4, 2)
        b = CellDefinition("b")
        b.add_box("diff", 7, 0, 12, 2)     # meets the expanded overhang
        b.add_port("gnd!", 10, 1, "diff")
        top = CellDefinition("top")
        top.add_instance(a, Vec2(0, 0), NORTH, name="a")
        top.add_instance(b, Vec2(0, 0), NORTH, name="b")
        flat = extract_netlist(top)
        hier = extract_netlist_hier(top)
        assert hier.gnd_nets and compare_netlists(hier, flat).matched

    def test_orphan_port_over_interior_conductor(self):
        """A box-less root's port lands on a tile-interior wire; it
        must attach exactly as flat extraction attaches it
        (regression: only frame-touching runs were searched)."""
        from repro import Vec2, NORTH

        child = CellDefinition("child")
        child.add_box("metal1", 2, 2, 8, 8)
        root = CellDefinition("root")
        root.add_instance(child, Vec2(0, 0), NORTH, name="child")
        root.add_port("vdd!", 5, 5, "metal1")
        flat = extract_netlist(root)
        hier = extract_netlist_hier(root)
        assert flat.vdd_nets and hier.vdd_nets
        assert compare_netlists(hier, flat).matched


# ----------------------------------------------------------------------
# Compiled relaxation against the per-call simulator it replaced


def simulate_oracle(netlist, input_values, max_events=None):
    """The per-call switch-level simulator, kept as the test oracle.

    Rebuilds the net -> device adjacency from ``Device`` pins on every
    call; :class:`repro.verify.CompiledNetlist` must settle every
    vector to exactly the values this returns.
    """
    from repro.verify.switchsim import SimulationError

    for device in netlist.devices:
        if device.kind not in ("enh", "dep"):
            raise SimulationError(f"device kind {device.kind!r} is not a transistor")
    forced = {}
    for net in netlist.vdd_nets:
        forced[net] = 1
    for net in netlist.gnd_nets:
        forced[net] = 0
    for net, value in input_values.items():
        forced[net] = value
    count = netlist.num_nets
    values = [X] * count
    strengths = [0] * count
    for net, value in forced.items():
        values[net] = value
        strengths[net] = 3
    by_channel = [[] for _ in range(count)]
    by_gate = [[] for _ in range(count)]
    for device in netlist.devices:
        for net in device.pins_with_role("ch"):
            by_channel[net].append(device)
        for net in device.pins_with_role("g"):
            by_gate[net].append(device)

    def resolve(drives):
        result = None
        for value in drives:
            if result is None:
                result = value
            elif result != value:
                return X
        return X if result is None else result

    def contributions(net):
        if net in forced:
            return 3, forced[net]
        best, best_values = 0, []
        for device in by_channel[net]:
            a, b = device.pins_with_role("ch")
            other = b if a == net else a
            if device.kind == "dep":
                conduct, cap = 1, 1
            else:
                conduct, cap = values[device.pins_with_role("g")[0]], 2
            if conduct == 0:
                continue
            strength = min(strengths[other], cap)
            if strength == 0:
                continue
            value = values[other] if conduct == 1 else X
            if strength > best:
                best, best_values = strength, [value]
            elif strength == best:
                best_values.append(value)
        return best, resolve(best_values) if best > 0 else X

    worklist = list(forced)
    queued = set(worklist)
    budget = max_events if max_events is not None else 64 * (
        count + len(netlist.devices) + 1
    )
    events = 0
    while worklist:
        events += 1
        if events > budget:
            raise SimulationError(f"relaxation did not settle within {budget} events")
        net = worklist.pop()
        queued.discard(net)
        affected = []
        for device in by_channel[net]:
            a, b = device.pins_with_role("ch")
            affected.append(b if a == net else a)
        for device in by_gate[net]:
            affected.extend(device.pins_with_role("ch"))
        for other in affected:
            if other in forced:
                continue
            strength, value = contributions(other)
            if (strength, value) != (strengths[other], values[other]):
                strengths[other], values[other] = strength, value
                if other not in queued:
                    queued.add(other)
                    worklist.append(other)
    return values


def seeded_table(seed, inputs, outputs, terms):
    """A random personality with no empty AND row or OR column."""
    import random

    rng = random.Random(seed)
    rows, outs = [], []
    for term in range(terms):
        row = [rng.choice("10-") for _ in range(inputs)]
        if set(row) == {"-"}:
            row[0] = "1"
        out = ["1" if rng.random() < 0.4 else "0" for _ in range(outputs)]
        out[term % outputs] = "1"
        rows.append("".join(row))
        outs.append("".join(out))
    return TruthTable(rows, outs)


def seeded_netlists():
    """(label, extracted netlist) for seeded PLAs, ROMs and decoders."""
    import random

    cases = []
    for seed in range(3):
        table = seeded_table(seed, 3 + seed, 2 + seed % 2, 4 + seed)
        cases.append((f"pla{seed}", pla_layout_netlist(generate_pla(table))))
        rng = random.Random(100 + seed)
        words = [rng.randrange(8) for _ in range(4 + seed)]
        cases.append((f"rom{seed}", pla_layout_netlist(generate_rom(words, 3)[0])))
    for inputs in (2, 3, 4):
        cases.append((f"dec{inputs}", pla_layout_netlist(generate_decoder(inputs))))
    return cases


class TestCompiledRelaxation:
    """``CompiledNetlist.relax`` equals the per-call oracle, vector by
    vector, every net (not just the outputs), with and without X."""

    @pytest.mark.parametrize("label, netlist", seeded_netlists())
    def test_every_net_matches_oracle(self, label, netlist):
        import itertools
        import random

        from repro.verify import CompiledNetlist

        compiled = CompiledNetlist(netlist)
        width = len(netlist.inputs)
        if 3 ** width <= 243:
            vectors = list(itertools.product((0, 1, X), repeat=width))
        else:
            rng = random.Random(width)
            vectors = [
                tuple(rng.choice((0, 1, X)) for _ in range(width)) for _ in range(200)
            ]
        assert any(X in bits for bits in vectors)
        for bits in vectors:
            forced = dict(zip(netlist.inputs, bits))
            assert compiled.relax(forced) == simulate_oracle(netlist, forced), (
                label, bits,
            )
            assert simulate(netlist, forced) == simulate_oracle(netlist, forced)

    def test_budget_and_kind_checks_kept(self):
        from repro.verify import CompiledNetlist, SimulationError

        netlist = pla_layout_netlist(generate_pla(TABLE))
        forced = dict(zip(netlist.inputs, (1, 0, 1)))
        with pytest.raises(SimulationError, match="did not settle within 2 events"):
            CompiledNetlist(netlist).relax(forced, max_events=2)
        with pytest.raises(SimulationError, match="did not settle"):
            simulate_oracle(netlist, forced, max_events=2)
        netlist.add_device("res", [("a", netlist.inputs[0]), ("b", netlist.inputs[1])])
        with pytest.raises(SimulationError, match="not a transistor"):
            CompiledNetlist(netlist)

    def test_missing_crosspoint_fails_like_the_per_vector_loop(self, monkeypatch):
        """Drop one AND-plane transistor from the extracted netlist: the
        compiled verifier reports exactly the failures the per-vector
        oracle loop finds."""
        import repro.verify.driver as driver
        from repro.verify import exhaustive_vectors

        cell = generate_pla(TABLE)
        intact = pla_layout_netlist(cell)

        def without(index):
            netlist = pla_layout_netlist(cell)
            del netlist.devices[index]
            return netlist

        def oracle_failures(netlist):
            failures = []
            for bits in exhaustive_vectors(TABLE.num_inputs):
                values = simulate_oracle(netlist, dict(zip(netlist.inputs, bits)))
                got = [values[net] for net in netlist.outputs]
                want = TABLE.evaluate(list(bits))
                if got != want:
                    failures.append(f"inputs {bits}: got {got}, want {want}")
            return failures

        # An AND-plane crosspoint pulls a product-term row down; take
        # the first whose loss the truth table can see (a widened term
        # may still be covered by the others).
        rows = {net for net in range(intact.num_nets)
                if any(name.endswith("/row") for name in intact.net_names[net])}
        crosspoints = [
            index for index, device in enumerate(intact.devices)
            if device.kind == "enh" and rows & set(device.pins_with_role("ch"))
        ]
        index = next(i for i in crosspoints if oracle_failures(without(i)))
        expected = oracle_failures(without(index))

        monkeypatch.setattr(driver, "pla_layout_netlist", lambda *a, **k: without(index))
        report = verify_pla(cell, table=TABLE, mode="sim")
        assert report.failures == expected


def test_sample_vectors_keeps_the_randint_stream():
    """``sample_vectors`` draws ``getrandbits(2)`` with rejection, which
    must reproduce the ``randint(0, 1)`` stream it replaced bit for bit
    (the sampled vector sets, and so every sampled verdict, depend on
    it)."""
    import random

    from repro.verify import sample_vectors

    for width in range(1, 17):
        for seed in range(5):
            rng = random.Random(seed)
            old = [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(64)]
            assert sample_vectors(width, 64, seed=seed) == old, (width, seed)
