"""Seeded inputs and the ops of the in-process workloads.

Every op drives the program through a public entry point
(``repro.cli.run_flow``, the ``repro.pla`` generators,
``repro.compact.compact_cell``, ``repro.verify.verify_cell``,
``repro.route.compose``, ``repro.layout.write_cif``) and checks what
came back.  The *catalogue* of shapes per workload is fixed, so every
seed carries the same amount of work; the seed only changes the
personalities, the text of the parameter files and the op order.

Entry points are always looked up on their module at call time
(``pla.generate_pla(...)``, never a local alias), so the tracing
wrappers installed by :mod:`layers` see every call.
"""

import hashlib
import io
import os
import random
import re

from repro import cli, compact, layout, multiplier, pla, route, verify

# The catalogues.  Per-op costs behind these choices are recorded in
# NOTES.md; the shapes around the p50 and p75 ranks are clusters of
# near-equal cost so that the percentiles do not sit on a cost gap.

#: compact_flat: flat x-then-y compaction of the multiplier
FLAT_MULTIPLIERS = ((6, 6), (8, 8), (10, 10), (12, 12), (16, 16))
#: compact_flat: (inputs, outputs, terms, count) of seeded PLAs,
#: generated, compacted along x and written as CIF
FLAT_PLAS = ((6, 4, 10, 5), (10, 6, 20, 4), (12, 8, 26, 5))

#: verify_sim: hierarchical compaction plus ``--verify all``
VERIFY_MULTIPLIERS = ((4, 4), (5, 5), (5, 6), (6, 5), (4, 7), (7, 4), (8, 8))
#: verify_sim: (inputs, outputs, terms, count) of seeded PLAs
VERIFY_PLAS = ((6, 4, 16, 3),)
#: verify_sim: (data bits, words, count) of seeded ROMs
VERIFY_ROMS = ((6, 16, 1),)
#: verify_sim: decoder input counts
VERIFY_DECODERS = (4, 5)
#: verify_sim: routed datapath composites, one per router
ROUTERS = ("river", "channel")

#: the self-check's tiny deck: (multiplier sizes, PLA shapes)
TINY_FLAT = (((4, 4), (5, 5)), ((4, 3, 6, 2),))
TINY_VERIFY = (((3, 3), (4, 4)), ((4, 3, 6, 1),))


class CheckFailure(Exception):
    """An op's output failed its correctness check."""


class Op:
    """One timed operation: ``run()`` is timed, ``check()`` is not."""

    def __init__(self, op_id, run, check):
        self.op_id = op_id
        self.run = run
        self.check = check


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_cif(path, cell):
    """Read ``path`` back and require the geometry of ``cell``."""
    table = layout.read_cif(path)
    if cell.name not in table:
        raise CheckFailure(f"{os.path.basename(path)}: cell {cell.name!r} missing")
    if not layout.flatten_cell(table.lookup(cell.name)).same_geometry(
        layout.flatten_cell(cell)
    ):
        raise CheckFailure(f"{os.path.basename(path)}: CIF geometry differs")
    return _sha256(path)


def quality(cell):
    """(bounding-box area in lambda^2, tech-A DRC violation count)."""
    flat = layout.flatten_cell(cell)
    bbox = flat.bounding_box()
    area = bbox.width * bbox.height if bbox is not None else 0
    return area, len(compact.check_layout(flat.layers, compact.TECH_A))


def parse_verdict(text):
    """Require a non-vacuous PASS in ``repro.verify`` summary text.

    A PASS must have extracted devices, matched LVS and simulated at
    least one vector; returns ``(devices, vectors)``.
    """
    devices = re.search(r"(\d+) devices, (\d+) nets", text)
    vectors = re.search(r"simulation: (\d+) vectors", text)
    if "result: PASS" not in text:
        raise CheckFailure("verdict is not PASS")
    if not devices or int(devices.group(1)) == 0:
        raise CheckFailure("PASS with no extracted devices")
    if "LVS match" not in text:
        raise CheckFailure("PASS without an LVS match")
    if not vectors or int(vectors.group(1)) == 0:
        raise CheckFailure("PASS with no simulated vectors")
    return int(devices.group(1)), int(vectors.group(1))


def check_report(report):
    """Require a non-vacuous passing :class:`VerificationReport`."""
    if not report.ok:
        raise CheckFailure(f"verification failed: {report.failures[:2]}")
    if report.devices == 0 or report.lvs is None or not report.lvs.matched:
        raise CheckFailure("PASS that extracted or compared nothing")
    if report.vectors_checked == 0:
        raise CheckFailure("PASS that simulated nothing")
    return report.devices, report.vectors_checked


# ----------------------------------------------------------------------
# seeded input files


def multiplier_parameter_text(rng, xsize, ysize, directives=""):
    """The multiplier's parameter file with ``xsize``/``ysize`` set.

    The bindings are shuffled and a seeded comment is added, so every
    seed hands the program different text with the same meaning.
    """
    body = multiplier.PARAMETER_FILE.split("\n", 1)[1]
    lines = [line for line in body.splitlines() if line.strip()]
    lines = [line for line in lines if not line.startswith(("xsize=", "ysize="))]
    lines += [f"xsize={xsize}", f"ysize={ysize}"]
    rng.shuffle(lines)
    return f"# deck {rng.getrandbits(32):08x}\n{directives}" + "\n".join(lines) + "\n"


def truth_table_text(rng, inputs, outputs, terms):
    """A seeded PLA personality in ``TruthTable.parse`` form.

    Every row has the same number of true, complemented and absent
    literals and of driven outputs, in seeded positions, so the drawn
    crosspoint counts (and with them the op's cost) do not depend on
    the seed.  Term ``t`` always drives output ``t % outputs``, so
    every output is driven.
    """
    literals = inputs // 3
    drives = max(1, (2 * outputs) // 5)
    rows = []
    for term in range(terms):
        left = ["1"] * literals + ["0"] * literals + ["-"] * (inputs - 2 * literals)
        rng.shuffle(left)
        others = [o for o in range(outputs) if o != term % outputs]
        driven = {term % outputs, *rng.sample(others, drives - 1)}
        right = ["1" if o in driven else "0" for o in range(outputs)]
        rows.append("".join(left) + " | " + "".join(right))
    return "\n".join(rows) + "\n"


class Workspace:
    """The run's input and output files, all under one directory."""

    def __init__(self, root, seed):
        self.root = root
        self.rng = random.Random(seed)
        os.makedirs(root, exist_ok=True)
        self.sample = self.write("multiplier.sample", multiplier.MULTIPLIER_SAMPLE)
        self.design = self.write("multiplier.design", multiplier.DESIGN_FILE)

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def multiplier_par(self, op_id, xsize, ysize):
        directives = (
            f".example_file:{self.sample}\n.concept_file:{self.design}\n"
            f".output_file:{self.path(op_id + '.cif')}\n"
            ".output_cell:thewholething\n"
        )
        return self.write(
            op_id + ".par",
            multiplier_parameter_text(self.rng, xsize, ysize, directives),
        )

    def truth_table(self, op_id, inputs, outputs, terms):
        path = self.write(
            op_id + ".tt", truth_table_text(self.rng, inputs, outputs, terms)
        )
        with open(path, encoding="utf-8") as handle:
            return pla.TruthTable.parse(handle.read())


# ----------------------------------------------------------------------
# compact_flat


def flat_multiplier_op(ws, xsize, ysize):
    op_id = f"mult_xy_{xsize}x{ysize}"
    par = ws.multiplier_par(op_id, xsize, ysize)
    cif_path = ws.path(op_id + ".cif")

    def run():
        return cli.run_flow(par, output_stream=io.StringIO(), compact_axes="xy")

    def check(cell):
        return check_cif(cif_path, cell)

    return Op(op_id, run, check)


def flat_pla_op(ws, index, inputs, outputs, terms):
    op_id = f"pla_x_{inputs}i{outputs}o{terms}t_{index}"
    table = ws.truth_table(op_id, inputs, outputs, terms)
    cif_path = ws.path(op_id + ".cif")

    def run():
        cell = pla.generate_pla(table, name=op_id)
        compacted, result = compact.compact_cell(cell, compact.TECH_A, axis="x")
        layout.write_cif(compacted, cif_path)
        return compacted, result

    def check(output):
        compacted, result = output
        if result.width_after <= 0 or result.constraint_count == 0:
            raise CheckFailure("compaction produced no geometry")
        return check_cif(cif_path, compacted)

    return Op(op_id, run, check)


def malformed_op(ws):
    """A parameter file with a syntax error: must count as a failed op."""
    par = ws.write(
        "malformed.par",
        f".example_file:{ws.sample}\n.concept_file:{ws.design}\nxsize==\n",
    )

    def run():
        return cli.run_flow(par, output_stream=io.StringIO(), compact_axes="xy")

    def check(cell):
        raise CheckFailure("a malformed parameter file produced a layout")

    return Op("malformed_par", run, check)


def compact_flat_ops(ws, tiny=False):
    multipliers, plas = TINY_FLAT if tiny else (FLAT_MULTIPLIERS, FLAT_PLAS)
    ops = [flat_multiplier_op(ws, x, y) for x, y in multipliers]
    for inputs, outputs, terms, count in plas:
        ops += [flat_pla_op(ws, i, inputs, outputs, terms) for i in range(count)]
    return ops


# ----------------------------------------------------------------------
# verify_sim


def verify_multiplier_op(ws, xsize, ysize):
    op_id = f"mult_hier_verify_{xsize}x{ysize}"
    par = ws.multiplier_par(op_id, xsize, ysize)
    cif_path = ws.path(op_id + ".cif")

    def run():
        stream = io.StringIO()
        cell = cli.run_flow(
            par, output_stream=stream, compact_axes="hier", verify_mode="all"
        )
        return cell, stream.getvalue()

    def check(output):
        cell, text = output
        parse_verdict(text)
        return check_cif(cif_path, cell)

    return Op(op_id, run, check)


def verify_pla_op(ws, index, inputs, outputs, terms):
    op_id = f"pla_verify_{inputs}i{outputs}o{terms}t_{index}"
    table = ws.truth_table(op_id, inputs, outputs, terms)

    def run():
        cell = pla.generate_pla(table, name=op_id)
        return cell, verify.verify_cell(cell, mode="all", table=table)

    def check(output):
        check_report(output[1])

    return Op(op_id, run, check)


def verify_rom_op(ws, index, bits, words):
    op_id = f"rom_verify_{bits}b{words}w_{index}"
    contents = [ws.rng.randrange(1 << bits) for _ in range(words)]
    ws.write(op_id + ".rom", "\n".join(str(word) for word in contents) + "\n")

    def run():
        cell, table = pla.generate_rom(contents, bits, name=op_id)
        return cell, verify.verify_cell(cell, mode="all", table=table)

    def check(output):
        cell, report = output
        check_report(report)
        if pla.read_rom_back(cell, words, bits) != contents:
            raise CheckFailure("ROM contents do not read back")

    return Op(op_id, run, check)


def verify_decoder_op(ws, inputs):
    op_id = f"decoder_verify_{inputs}"

    def run():
        cell = pla.generate_decoder(inputs, name=op_id)
        return cell, verify.verify_cell(cell, mode="all")

    def check(output):
        check_report(output[1])

    return Op(op_id, run, check)


def _output_columns(cell):
    """Absolute x centres of a PLA's output buffers, left to right."""
    from repro.geometry import Transform

    columns = []

    def walk(node, transform):
        for instance in node.instances:
            if not instance.is_placed:
                continue
            world = transform.compose(instance.transform)
            if instance.celltype == "outbuf":
                bbox = world.apply_box(instance.definition.bounding_box())
                columns.append((bbox.xmin + bbox.xmax) // 2)
            walk(instance.definition, world)

    walk(cell, Transform())
    return sorted(columns)


def routed_op(ws, router):
    """A PLA controller routed onto a multiplier datapath.

    Built as ``examples/datapath_demo.py`` builds it: control lines on
    the PLA's output columns, control columns spread along the
    datapath's top edge, an aligned bus for the river router and a
    rotated one for the channel router.
    """
    op_id = f"routed_{router}"
    table = ws.truth_table(op_id, 4, 4, 4)
    cif_path = ws.path(op_id + ".cif")
    pitch = 7  # the channel style's pitch under TECH_A

    def run():
        controller = pla.generate_pla(table, name="controller")
        datapath = multiplier.generate_multiplier(4, 4)
        datapath.name = "datapath"
        columns = _output_columns(controller)
        pla_bbox = controller.bounding_box()
        for index, x in enumerate(columns):
            controller.add_port(f"out{index}", x, pla_bbox.ymin, "metal1")
        mult_bbox = datapath.bounding_box()
        stride = mult_bbox.width // (len(columns) + 1)
        for index in range(len(columns)):
            x = mult_bbox.xmin + (index + 1) * stride
            while any(0 < abs(x - c) < pitch for c in columns):
                x += pitch
            datapath.add_port(f"ctl{index}", x, mult_bbox.ymax, "metal1")
        lines = len(columns)
        shift = 0 if router == "river" else 1
        nets = {
            f"ctl{i}": [
                ("datapath", f"ctl{i}"),
                ("controller", f"out{(i + shift) % lines}"),
            ]
            for i in range(lines)
        }
        composite, plan = route.compose(op_id, datapath, controller, nets)
        mismatches = route.verify_composite(composite, plan)
        layout.write_cif(composite, cif_path)
        return composite, plan, mismatches

    def check(output):
        composite, plan, mismatches = output
        if plan.router != router:
            raise CheckFailure(f"routed with {plan.router}, expected {router}")
        if mismatches or not plan.nets:
            raise CheckFailure(f"connectivity round trip: {mismatches[:2]}")
        return check_cif(cif_path, composite)

    return Op(op_id, run, check)


def verify_sim_ops(ws, tiny=False):
    if tiny:
        multipliers, plas = TINY_VERIFY
        ops = [verify_multiplier_op(ws, x, y) for x, y in multipliers]
        for inputs, outputs, terms, count in plas:
            ops += [verify_pla_op(ws, i, inputs, outputs, terms) for i in range(count)]
        return ops + [routed_op(ws, "river")]
    ops = [verify_multiplier_op(ws, x, y) for x, y in VERIFY_MULTIPLIERS]
    for inputs, outputs, terms, count in VERIFY_PLAS:
        ops += [verify_pla_op(ws, i, inputs, outputs, terms) for i in range(count)]
    for bits, words, count in VERIFY_ROMS:
        ops += [verify_rom_op(ws, i, bits, words) for i in range(count)]
    ops += [verify_decoder_op(ws, n) for n in VERIFY_DECODERS]
    ops += [routed_op(ws, router) for router in ROUTERS]
    return ops


def output_cell(output):
    """The layout cell an op produced (for area and DRC)."""
    from repro.core.cell import CellDefinition

    if isinstance(output, CellDefinition):
        return output
    return output[0]
