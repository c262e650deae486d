"""The pipelined Baugh-Wooley array multiplier case study (chapter 5)."""

from .baughwooley import (
    build_baugh_wooley,
    cell_type_grid,
    from_bits,
    multiply,
    multiply_many,
    reference_product,
    to_bits,
    to_signed,
)
from .cells import CELL_PITCH, MULTIPLIER_SAMPLE, REG_PITCH, load_multiplier_library
from .designfile import (
    DESIGN_FILE,
    DESIGN_FILE_RETIMED,
    PARAMETER_FILE,
    generate_retimed_multiplier,
    generate_via_language,
)
from .regconfig import RegisterConfiguration, register_configuration
from .generator import (
    MultiplierReport,
    generate_multiplier,
    intended_multiplier_netlist,
    report_for,
)
from .netlist import Cell, Netlist
from .retiming import PipelinedSimulator, RegisterAssignment, retime

__all__ = [
    "build_baugh_wooley",
    "intended_multiplier_netlist",
    "multiply",
    "multiply_many",
    "reference_product",
    "cell_type_grid",
    "to_signed",
    "to_bits",
    "from_bits",
    "Netlist",
    "Cell",
    "retime",
    "RegisterAssignment",
    "PipelinedSimulator",
    "MULTIPLIER_SAMPLE",
    "load_multiplier_library",
    "CELL_PITCH",
    "REG_PITCH",
    "DESIGN_FILE",
    "DESIGN_FILE_RETIMED",
    "generate_retimed_multiplier",
    "RegisterConfiguration",
    "register_configuration",
    "PARAMETER_FILE",
    "generate_via_language",
    "generate_multiplier",
    "report_for",
    "MultiplierReport",
]
