"""Multiplexors: the control-to-datapath interface primitives."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.netlist.gates import Gate
from repro.netlist.nets import Net


class Mux(Gate):
    """N-way multiplexor: ``out = data[select]``.

    ``select`` is a control net of width ``ceil(log2(len(data)))`` (or wider);
    a select value beyond the number of data inputs selects the last input,
    matching common synthesis behaviour for incomplete case statements.

    The implication rules use the paper's cube-union technique: the output is
    implied to the union of the *selectable* input cubes, and an input whose
    cube has empty intersection with the output cube implies that the select
    cannot take the corresponding value.
    """

    kind = "mux"

    def __init__(self, name: str, select: Net, data: Sequence[Net], output: Net):
        if len(data) < 2:
            raise ValueError("mux %s needs at least two data inputs" % (name,))
        widths = {net.width for net in data} | {output.width}
        if len(widths) != 1:
            raise ValueError("mux %s data/output widths must match" % (name,))
        needed_select_bits = max(1, (len(data) - 1).bit_length())
        if select.width < needed_select_bits:
            raise ValueError(
                "mux %s select width %d too small for %d inputs"
                % (name, select.width, len(data))
            )
        super().__init__(name, [select] + list(data), output)
        self.select = select
        self.data: List[Net] = list(data)

    def evaluate(self, values: Dict[Net, int]) -> int:
        index = values[self.select] & self.select.mask()
        if index >= len(self.data):
            index = len(self.data) - 1
        return values[self.data[index]] & self.output.mask()

    def gate_count(self) -> int:
        return max(1, self.output.width) * max(1, len(self.data) - 1)
