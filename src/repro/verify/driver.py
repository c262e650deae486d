"""High-level verification entry points (the ``--verify`` flow).

Dispatches a generated cell to the right verification recipe:

* **PLA family** (PLA / ROM / decoder — anything built from the
  :mod:`repro.pla` sample): full mask-level closure.  The transistor
  netlist is extracted from the masks (flat, or tile-hierarchically
  with ``hier=True``), LVS-compared against the generator's
  ``intended_*_netlist`` golden, and switch-level simulated against
  the truth table — exhaustively up to ``max_vectors`` input
  combinations, seeded-randomly sampled beyond;
* **multiplier** (stylised sample): cell-level LVS of the extracted
  cell graph against :func:`repro.multiplier.generator.intended_multiplier_netlist`,
  personality read-back against the Baugh-Wooley grid, and an
  exhaustive (or sampled) product check of the personality-derived
  arithmetic;
* anything else: extraction summary only (no golden is known).

Every recipe returns a :class:`VerificationReport`; ``report.ok`` is
the single pass/fail the CLI and the example scripts key on.
"""

from __future__ import annotations

from typing import List, Optional

from ..compact.cache import CompactionCache
from ..compact.rules import DesignRules
from ..core.cell import CellDefinition
from ..obs import trace as obs_trace
from .extract import extract_netlist
from .hier import extract_netlist_hier
from .lvs import LvsReport, compare_netlists
from .netlist import SwitchNetlist
from .switchsim import CompiledNetlist, exhaustive_vectors, sample_vectors

__all__ = ["VerificationReport", "verify_cell", "verify_pla", "verify_multiplier"]

#: default ceiling on simulated input combinations before sampling
DEFAULT_MAX_VECTORS = 4096


class VerificationReport:
    """Outcome of one verification run."""

    def __init__(self, subject: str, mode: str) -> None:
        self.subject = subject
        self.mode = mode
        self.hierarchical = False
        self.lvs: Optional[LvsReport] = None
        self.vectors_checked = 0
        self.exhaustive = False
        #: human-readable functional mismatches (empty when clean)
        self.failures: List[str] = []
        self.devices = 0
        self.nets = 0

    @property
    def ok(self) -> bool:
        """True when every requested check passed."""
        if self.lvs is not None and not self.lvs.matched:
            return False
        return not self.failures

    def summary(self) -> str:
        """Printable multi-line account of the run."""
        lines = [
            f"verify {self.subject} ({self.mode},"
            f" {'hierarchical' if self.hierarchical else 'flat'} extraction):"
            f" {self.devices} devices, {self.nets} nets"
        ]
        if self.lvs is not None:
            lines.append(f"  {self.lvs.summary()}")
        if self.vectors_checked:
            regime = "exhaustive" if self.exhaustive else "sampled"
            lines.append(
                f"  simulation: {self.vectors_checked} vectors ({regime}),"
                f" {len(self.failures)} mismatches"
            )
        for failure in self.failures[:5]:
            lines.append(f"  FAIL {failure}")
        lines.append(f"  result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (the service stores this per job artifact)."""
        return {
            "subject": self.subject,
            "mode": self.mode,
            "hierarchical": self.hierarchical,
            "devices": self.devices,
            "nets": self.nets,
            "vectors_checked": self.vectors_checked,
            "exhaustive": self.exhaustive,
            "failures": list(self.failures),
            "lvs": self.lvs.to_dict() if self.lvs is not None else None,
            "ok": self.ok,
            "summary": self.summary(),
        }

    def __repr__(self) -> str:
        return f"VerificationReport({self.subject!r}, ok={self.ok})"


def _celltypes(cell: CellDefinition) -> set:
    names = set()

    def walk(node: CellDefinition) -> None:
        for instance in node.instances:
            names.add(instance.celltype)
            walk(instance.definition)

    walk(cell)
    return names


def _extract(
    cell: CellDefinition,
    rules: Optional[DesignRules],
    hier: bool,
    cache: Optional[CompactionCache],
) -> SwitchNetlist:
    with obs_trace.span("verify.extract", hier=hier) as extract_span:
        if hier:
            netlist = extract_netlist_hier(cell, rules, cache=cache)
        else:
            netlist = extract_netlist(cell, rules)
        extract_span.set(nets=len(netlist.net_names), devices=len(netlist.devices))
    return netlist


def pla_layout_netlist(
    cell: CellDefinition,
    rules: Optional[DesignRules] = None,
    hier: bool = False,
    cache: Optional[CompactionCache] = None,
) -> SwitchNetlist:
    """Extract a PLA-family layout and bind its primary pins.

    Inputs are the ``in`` ports left to right; outputs the ``out``
    ports (buffered PLA/ROM) or, for a decoder, the ``row`` ports
    bottom to top.
    """
    netlist = _extract(cell, rules, hier, cache)
    netlist.inputs = netlist.nets_with_suffix("in")
    outputs = netlist.nets_with_suffix("out")
    netlist.outputs = outputs or netlist.nets_with_suffix("row")
    return netlist


def verify_pla(
    cell: CellDefinition,
    table=None,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
    rules: Optional[DesignRules] = None,
    hier: bool = False,
    cache: Optional[CompactionCache] = None,
) -> VerificationReport:
    """Verify a PLA/ROM/decoder layout at the mask level.

    ``table`` is the programmed :class:`~repro.pla.truthtable.TruthTable`;
    when omitted it is recovered from the crosspoint masks with
    :func:`~repro.pla.generator.extract_personality`, which still
    closes the loop from mask geometry to the personality actually
    drawn.  ``mode`` is ``"lvs"``, ``"sim"`` or ``"all"``.
    """
    from ..pla.generator import (
        extract_personality,
        intended_decoder_netlist,
        intended_pla_netlist,
    )

    is_decoder = "outbuf" not in _celltypes(cell)
    report = VerificationReport(
        f"{cell.name} ({'decoder' if is_decoder else 'pla'})", mode
    )
    report.hierarchical = hier
    netlist = pla_layout_netlist(cell, rules, hier, cache)
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets
    if table is None:
        table = extract_personality(cell)

    if mode in ("lvs", "all"):
        with obs_trace.span("verify.lvs") as lvs_span:
            if is_decoder:
                golden = intended_decoder_netlist(table.num_inputs)
            else:
                golden = intended_pla_netlist(table)
            report.lvs = compare_netlists(netlist, golden)
            lvs_span.set(matched=report.lvs.matched)

    if mode in ("sim", "all"):
        with obs_trace.span("verify.sim", lanes=1) as sim_span:
            _simulate_pla(report, netlist, table, is_decoder, max_vectors)
            sim_span.set(
                vectors=report.vectors_checked,
                exhaustive=report.exhaustive,
                failures=len(report.failures),
            )
    return report


def _simulate_pla(
    report: VerificationReport,
    netlist: SwitchNetlist,
    table,
    is_decoder: bool,
    max_vectors: int,
) -> None:
    """Switch-level simulate ``netlist`` against the truth table.

    The netlist is compiled once and relaxed once per vector.
    """
    width = len(netlist.inputs)
    if width != table.num_inputs:
        report.failures.append(
            f"extracted {width} inputs, table has {table.num_inputs}"
        )
        return
    if (1 << width) <= max_vectors:
        vectors = exhaustive_vectors(width)
        report.exhaustive = True
    else:
        vectors = sample_vectors(width, max_vectors, seed=width)
    compiled = CompiledNetlist(netlist)
    for bits in vectors:
        values = compiled.relax(dict(zip(netlist.inputs, bits)))
        got = [values[net] for net in netlist.outputs]
        if is_decoder:
            index = sum(bit << k for k, bit in enumerate(bits))
            want = [1 if k == index else 0 for k in range(len(netlist.outputs))]
        else:
            want = table.evaluate(list(bits))
        if got != want:
            report.failures.append(f"inputs {bits}: got {got}, want {want}")
    report.vectors_checked = len(vectors)


def verify_multiplier(
    cell: CellDefinition,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> VerificationReport:
    """Verify a generated multiplier at the cell level.

    LVS compares the extracted cell graph (placement, personalisation
    masks, seams, register stacks) against the architecture's golden
    netlist; the functional pass reads the personality grid back from
    the masks, checks it against the Baugh-Wooley pattern, and
    multiplies every operand pair (or a seeded sample beyond
    ``max_vectors``) against the reference product.
    """
    from ..multiplier.baughwooley import cell_type_grid
    from ..multiplier.generator import intended_multiplier_netlist
    from .cellgraph import cell_graph_netlist, multiplier_personality

    report = VerificationReport(f"{cell.name} (multiplier)", mode)
    try:
        xsize, ysize, grid, cpa = multiplier_personality(cell)
    except ValueError as error:
        report.failures.append(f"personality read-back: {error}")
        return report
    with obs_trace.span("verify.extract", hier=False) as extract_span:
        netlist = cell_graph_netlist(cell)
        extract_span.set(nets=len(netlist.net_names), devices=len(netlist.devices))
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets

    if mode in ("lvs", "all"):
        with obs_trace.span("verify.lvs") as lvs_span:
            golden = intended_multiplier_netlist(xsize, ysize)
            report.lvs = compare_netlists(netlist, golden)
            lvs_span.set(matched=report.lvs.matched)

    if mode in ("sim", "all"):
        if grid != cell_type_grid(xsize, ysize):
            report.failures.append(
                "personality grid does not match the Baugh-Wooley pattern"
            )
        if any(entry != "I" for entry in cpa):
            report.failures.append(
                "carry-propagate row carries a type II mask"
            )
        if not report.failures and xsize >= 2 and ysize >= 2:
            with obs_trace.span("verify.sim") as sim_span:
                _check_products(report, xsize, ysize, max_vectors)
                sim_span.set(
                    vectors=report.vectors_checked,
                    exhaustive=report.exhaustive,
                    lanes=report.vectors_checked,
                    failures=len(report.failures),
                )
    return report


def _check_products(
    report: VerificationReport, xsize: int, ysize: int, max_vectors: int
) -> None:
    """Multiply every operand pair (or a seeded sample) on the
    Baugh-Wooley golden model against the reference product.

    All pairs ride in the bit lanes of one evaluation.
    """
    from ..multiplier.baughwooley import (
        build_baugh_wooley,
        from_bits,
        multiply_many,
        reference_product,
    )

    total = 1 << (xsize + ysize)
    if total <= max_vectors:
        pairs = [(a, b) for a in range(1 << xsize) for b in range(1 << ysize)]
        report.exhaustive = True
    else:
        vectors = sample_vectors(xsize + ysize, max_vectors, seed=total)
        pairs = [
            (from_bits(bits[:xsize]), from_bits(bits[xsize:]))
            for bits in vectors
        ]
    products = multiply_many(build_baugh_wooley(xsize, ysize), pairs, xsize, ysize)
    for (a, b), got in zip(pairs, products):
        want = reference_product(a, b, xsize, ysize)
        if got != want:
            report.failures.append(f"{a} x {b}: got {got}, want {want}")
    report.vectors_checked = len(pairs)


def verify_cell(
    cell: CellDefinition,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
    rules: Optional[DesignRules] = None,
    hier: bool = False,
    cache: Optional[CompactionCache] = None,
    table=None,
) -> VerificationReport:
    """Verify any generated cell, dispatching on its leaf vocabulary.

    PLA-family layouts get the mask-level recipe, multipliers the
    cell-level one; unknown vocabularies get an extraction summary
    (device/net counts) with no golden comparison.
    """
    names = _celltypes(cell)
    if "andsq" in names or "orsq" in names:
        return verify_pla(
            cell, table=table, mode=mode, max_vectors=max_vectors,
            rules=rules, hier=hier, cache=cache,
        )
    if "basiccell" in names:
        return verify_multiplier(cell, mode=mode, max_vectors=max_vectors)
    report = VerificationReport(f"{cell.name} (generic)", mode)
    report.hierarchical = hier
    netlist = _extract(cell, rules, hier, cache)
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets
    return report
