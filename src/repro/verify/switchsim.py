"""Event-driven switch-level simulation (Bryant-style 0/1/X).

The simulator evaluates a transistor-level
:class:`~repro.verify.netlist.SwitchNetlist` the way MOSSIM treats an
NMOS network: signals take values ``0``, ``1`` or ``X`` at one of three
strengths —

* **rail** (3): the forced nets (VDD, GND, primary inputs);
* **drive** (2): anything reached through a conducting enhancement
  channel (a pull-down path, or a pass-transistor network);
* **pull** (1): anything reached only through a depletion load.

Every net settles to the value of its strongest contribution; equal
strongest contributions that disagree settle to ``X``, and a device
whose gate is ``X`` conducts with value ``X`` (the conservative
resolution).  Relaxation is event-driven: a worklist seeded with the
forced nets re-examines only the devices adjacent to nets that
actually changed, so a PLA plane settles in a handful of events per
crosspoint rather than whole-netlist sweeps.  :class:`CompiledNetlist`
builds the net -> device adjacency once, so a check that simulates
many vectors over one netlist pays for it once.

:func:`exhaustive_vectors` and :func:`sample_vectors` provide the two
evaluation regimes the verifier uses: every input combination for
small designs, seeded random sampling for large ones.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .netlist import SwitchNetlist

__all__ = [
    "CompiledNetlist",
    "SimulationError",
    "X",
    "simulate",
    "exhaustive_vectors",
    "sample_vectors",
]

#: the unknown logic value
X = 2

_RAIL, _DRIVE, _PULL, _FLOAT = 3, 2, 1, 0


class SimulationError(ValueError):
    """Raised when a netlist cannot be simulated at switch level."""


class CompiledNetlist:
    """A switch netlist's adjacency, built once for many relaxations.

    Compiling checks that every device is a transistor and flattens
    the devices into two per-net tables: ``channels[net]`` lists
    ``(other, gate)`` for every channel touching ``net`` (``gate`` is
    ``-1`` for a depletion load, which always conducts), and
    ``gated[net]`` lists the ``(a, b)`` channel ends of every device
    ``net`` gates.  :meth:`relax` then settles one input vector
    without touching :class:`~repro.verify.netlist.Device` objects.
    """

    __slots__ = ("num_nets", "rails", "channels", "gated", "budget")

    def __init__(self, netlist: SwitchNetlist) -> None:
        for device in netlist.devices:
            if device.kind not in ("enh", "dep"):
                raise SimulationError(
                    f"device kind {device.kind!r} is not a transistor; "
                    "switch-level simulation needs a transistor-level netlist"
                )
        count = netlist.num_nets
        self.num_nets = count
        self.rails: Dict[int, int] = {}
        for net in netlist.vdd_nets:
            self.rails[net] = 1
        for net in netlist.gnd_nets:
            self.rails[net] = 0
        self.channels: List[List[Tuple[int, int]]] = [[] for _ in range(count)]
        self.gated: List[List[Tuple[int, int]]] = [[] for _ in range(count)]
        for device in netlist.devices:
            ends = device.pins_with_role("ch")
            a, b = ends
            gate = -1 if device.kind == "dep" else device.pins_with_role("g")[0]
            for net in ends:
                self.channels[net].append((b if a == net else a, gate))
            for net in device.pins_with_role("g"):
                self.gated[net].append((a, b))
        self.budget = 64 * (count + len(netlist.devices) + 1)

    def relax(
        self, input_values: Dict[int, int], max_events: Optional[int] = None
    ) -> List[int]:
        """Steady-state net values for one vector of forced inputs.

        Same contract as :func:`simulate`, which is compile + relax.
        """
        forced = dict(self.rails)
        forced.update(input_values)
        count = self.num_nets
        values = [X] * count
        strengths = [_FLOAT] * count
        for net, value in forced.items():
            values[net] = value
            strengths[net] = _RAIL
        channels = self.channels
        gated = self.gated

        worklist: List[int] = list(forced)
        queued = set(worklist)
        budget = max_events if max_events is not None else self.budget
        events = 0
        while worklist:
            events += 1
            if events > budget:
                raise SimulationError(
                    f"relaxation did not settle within {budget} events"
                )
            net = worklist.pop()
            queued.discard(net)
            # A changed net affects its channel neighbours...
            affected = [other for other, _ in channels[net]]
            # ... and everything on the far side of devices it gates.
            for a, b in gated[net]:
                affected.append(a)
                affected.append(b)
            for target in affected:
                if target in forced:
                    continue
                # The strongest drive reaching ``target``; equal
                # strongest contributions that disagree resolve to X.
                best = _FLOAT
                value = X
                for other, gate in channels[target]:
                    if gate < 0:
                        conduct, cap = 1, _PULL
                    else:
                        conduct, cap = values[gate], _DRIVE
                    if conduct == 0:
                        continue
                    strength = strengths[other]
                    if strength > cap:
                        strength = cap
                    if strength == _FLOAT:
                        continue
                    drive = values[other] if conduct == 1 else X
                    if strength > best:
                        best, value = strength, drive
                    elif strength == best and drive != value:
                        value = X
                if best != strengths[target] or value != values[target]:
                    strengths[target], values[target] = best, value
                    if target not in queued:
                        queued.add(target)
                        worklist.append(target)
        return values


def simulate(
    netlist: SwitchNetlist,
    input_values: Dict[int, int],
    max_events: Optional[int] = None,
) -> List[int]:
    """Steady-state net values for the given forced inputs.

    ``input_values`` maps net id -> 0/1; VDD/GND nets are forced from
    the netlist's rail sets.  Returns a value (0/1/``X``) per net.
    Nets never reached by any driver stay ``X`` (floating).  Raises
    :class:`SimulationError` when relaxation fails to settle within
    ``max_events`` (default: proportional to netlist size) — the
    signature of an oscillating feedback path.  To simulate many
    vectors, compile once with :class:`CompiledNetlist` and call its
    :meth:`~CompiledNetlist.relax` per vector.
    """
    return CompiledNetlist(netlist).relax(input_values, max_events)


def exhaustive_vectors(width: int) -> List[Tuple[int, ...]]:
    """Every input combination for ``width`` bits, in counting order."""
    return [
        tuple((index >> bit) & 1 for bit in range(width))
        for index in range(1 << width)
    ]


def sample_vectors(width: int, count: int, seed: int = 0) -> List[Tuple[int, ...]]:
    """``count`` distinct-ish random vectors of ``width`` bits (seeded)."""
    rng = random.Random(seed)
    draw = rng.getrandbits
    vectors = []
    for _ in range(count):
        bits = []
        for _ in range(width):
            # CPython's randint(0, 1) draws getrandbits(2) until the
            # result is below 2; doing the same here keeps the stream
            # bit-identical at a fraction of the call overhead.
            bit = draw(2)
            while bit > 1:
                bit = draw(2)
            bits.append(bit)
        vectors.append(tuple(bits))
    return vectors
