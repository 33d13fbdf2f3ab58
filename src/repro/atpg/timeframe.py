"""Time-frame expansion of a sequential circuit into an implication network.

The paper creates a combinational model of the sequential constraints by
treating the state elements as buffers between frames and adding new
variables for the inputs of each time frame.  :class:`UnrolledModel` builds
exactly that: every combinational gate becomes one implication node per
frame, and every register becomes a cross-frame node relating its pins in
frame ``t`` to its output in frame ``t + 1``.

The expansion is *incremental*:

* :meth:`UnrolledModel.extend_to` appends only the missing frames to the
  live implication engine instead of rebuilding frames ``0..k`` from
  scratch, so growing the check bound costs O(circuit) per bound instead of
  O(bound x circuit).
* The model distinguishes *built* frames (nodes physically present in the
  engine) from the *active view* ``num_frames``: frames beyond the view stay
  built but inert (their nodes are deactivated), so a model extended for a
  deep bound can be reused for a shallower one -- e.g. for the next property
  in a batch -- without the extra frames constraining the search.
* :meth:`UnrolledModel.sync_with_circuit` picks up gates and registers added
  to the circuit *after* the model was built (property compilation appends
  monitor logic), materialising them in every built frame.

Variable keys are ``(net, frame)`` tuples (:data:`VarKey`).
"""

from __future__ import annotations

import enum
import time
from functools import partial
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.atpg.estg import ExtendedStateTransitionGraph
from repro.bitvector import BV3
from repro.implication.assignment import RootCause
from repro.implication.compiled import CompiledEngine
from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.implication.rules import build_rule
from repro.implication.rules_seq import imply_dff
from repro.netlist.circuit import Circuit
from repro.netlist.compare import Comparator
from repro.netlist.gates import Gate
from repro.netlist.nets import Net
from repro.netlist.seq import DFF
from repro.netlist.classify import is_control

#: A variable key in the unrolled model: (net, frame index).
VarKey = Tuple[Net, int]


# The search's outcome and limits live beside the model rather than in
# :mod:`repro.atpg.justify`: a check whose requirements already conflict at
# the model's fixpoint reports FAIL without loading the justifier.
class JustifyOutcome(enum.Enum):
    """Result of a justification run."""

    SUCCESS = "success"
    FAIL = "fail"
    ABORT = "abort"


class JustifierLimits:
    """Resource limits of the branch-and-bound search.

    Compared by value: :class:`~repro.checker.engine.CheckerOptions`
    equality and ``repr`` include its limits.
    """

    __slots__ = ("max_decisions", "max_backtracks", "max_depth", "arithmetic_budget")

    def __init__(self, max_decisions: int = 200_000, max_backtracks: int = 50_000,
                 max_depth: int = 5_000, arithmetic_budget: int = 256):
        self.max_decisions = max_decisions
        self.max_backtracks = max_backtracks
        self.max_depth = max_depth
        self.arithmetic_budget = arithmetic_budget

    def _fields(self) -> Tuple[int, int, int, int]:
        return (self.max_decisions, self.max_backtracks, self.max_depth,
                self.arithmetic_budget)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "JustifierLimits(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._fields())
        )


class UnrolledModel:
    """A circuit unrolled over ``num_frames`` time frames.

    Parameters
    ----------
    circuit:
        The design under verification (validated word-level netlist).
    num_frames:
        Number of time frames (>= 1).  Frame 0 is the initial frame.
    initial_state:
        Optional mapping from register output net (or name) to its known
        initial value.  Registers not mentioned fall back to their
        ``init_value``; a register whose ``init_value`` is ``None`` starts
        fully unknown (its frame-0 output behaves like a pseudo primary
        input).
    free_initial_state:
        When ``True`` no ``init_value`` is applied at all: every register not
        mentioned in ``initial_state`` starts fully unknown at frame 0.  Used
        by analyses that reason about transitions from *arbitrary* states
        (local FSM extraction, inductive-style arguments).
    engine:
        Optionally reuse an existing engine/assignment (used by tests).
    compiled:
        Build on the slot-indexed compiled kernel
        (:class:`~repro.implication.compiled.CompiledEngine`), the default;
        ``False`` builds on the interpreted engine, the oracle the kernel
        is lowered from.  Lowering happens incrementally while the
        frames are built/extended, so a cached model keeps its compiled
        state across bounds and jobs; the time spent is accumulated in
        :attr:`compile_seconds`.  Ignored when ``engine`` is given (the
        engine's own type wins).
    """

    def __init__(
        self,
        circuit: Circuit,
        num_frames: int,
        initial_state: Optional[Mapping[Union[Net, str], int]] = None,
        free_initial_state: bool = False,
        engine: Optional[ImplicationEngine] = None,
        compiled: bool = True,
    ):
        if num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        self.circuit = circuit
        self.free_initial_state = free_initial_state
        if engine is None:
            engine = CompiledEngine() if compiled else ImplicationEngine()
        self.engine = engine
        #: True when the model runs on the compiled slot-indexed kernel.
        self.compiled = isinstance(engine, CompiledEngine)
        #: wall-clock seconds spent lowering frames onto the compiled
        #: kernel (zero for interpreted models).
        self.compile_seconds = 0.0
        self.driver_node: Dict[VarKey, ImplicationNode] = {}
        #: slot -> driving node (compiled models only; mirrors driver_node).
        self.driver_slot: List[Optional[ImplicationNode]] = []
        #: slot -> memoised is_decision_point verdict (compiled models only;
        #: invalidated when the circuit grows, since fanout can change).
        self._decision_point_slots: List[Optional[bool]] = []
        self.gate_nodes: List[ImplicationNode] = []
        self.register_nodes: List[ImplicationNode] = []
        self._initial_state_cubes: Dict[Net, BV3] = {}
        self._explicit_initial_state = self._resolve_initial_state(initial_state)

        #: active view: frames 0..num_frames-1 take part in checking.
        self.num_frames = 0
        #: frames physically present in the engine (>= ``num_frames``).
        self.built_frames = 0
        #: monotone counter of frame constructions (performance statistic).
        self.frames_constructed = 0

        # Circuit elements materialised so far (prefix of circuit.gates /
        # circuit.inputs, in declaration = uid order).
        self._known_gates: List[Gate] = []
        self._known_ffs: List[DFF] = []
        self._scanned_gates = 0
        self._scanned_inputs = 0

        # Per-frame node lists in canonical order: _frame_gate_nodes[f] holds
        # frame f's combinational nodes (gate-uid order);
        # _frame_register_nodes[f] holds the register nodes crossing frame f
        # into frame f+1 (flip-flop declaration order).
        self._frame_gate_nodes: List[List[ImplicationNode]] = []
        self._frame_register_nodes: List[List[ImplicationNode]] = []
        self._active_nodes_cache: Optional[List[ImplicationNode]] = None
        self._node_order_cache: Optional[Dict[int, int]] = None

        #: persistent search learning attached to the model: the learned-cube
        #: store and the proven-FAIL target memo ride the model through the
        #: :class:`~repro.checker.incremental.UnrolledModelCache`, so facts
        #: learned at one bound prune every later bound and every property
        #: sharing the (circuit, initial state, environment) cache key.  This
        #: is the model's only ESTG.
        self.estg = ExtendedStateTransitionGraph()

        #: persistent knowledge base plumbing (set by
        #: :meth:`repro.kb.store.KnowledgeBase.attach`): a zero-argument
        #: flush callback the model cache runs before dropping the model,
        #: and the (store, model key) pairs already merged into ``estg`` so
        #: repeated checks do not reload.
        self.kb_flush_hook = None
        self.kb_loaded_keys: Set[object] = set()

        #: keys whose base-fixpoint value is *frame-anchored*: derived from
        #: an initial-state cube or through a register crossing node.  Both
        #: kinds of fact break under frame shifting (frame-0 registers are
        #: free, so a register-boundary fact at frame f has no analog at
        #: f=0, and chains push the floor higher).  Learned facts whose
        #: implication cone touches a tainted key are therefore anchored to
        #: absolute frames; purely combinational base facts (constants and
        #: their cones are identical in every frame) stay shift-invariant.
        self.init_tainted: Set[VarKey] = set()
        self._taint_pos = 0

        self._base_level = self.engine.assignment.decision_level
        self._base_savepoint = self.engine.savepoint()
        self._absorb_circuit()
        self.extend_to(num_frames)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _resolve_initial_state(
        self, initial_state: Optional[Mapping[Union[Net, str], int]]
    ) -> Dict[Net, int]:
        explicit: Dict[Net, int] = {}
        if initial_state:
            by_name = {ff.q.name: ff.q for ff in self.circuit.flip_flops}
            for key, value in initial_state.items():
                net = key if isinstance(key, Net) else by_name.get(key)
                if net is None:
                    raise KeyError("no register output named %r" % (key,))
                explicit[net] = value
        return explicit

    def _absorb_circuit(self) -> Tuple[List[Gate], List[DFF], List[Net]]:
        """Scan circuit elements added since the last call (uid order)."""
        new_gates: List[Gate] = []
        new_ffs: List[DFF] = []
        for gate in self.circuit.gates[self._scanned_gates:]:
            if gate.is_sequential():
                new_ffs.append(gate)
            else:
                new_gates.append(gate)
        self._scanned_gates = len(self.circuit.gates)
        new_inputs = list(self.circuit.inputs[self._scanned_inputs:])
        self._scanned_inputs = len(self.circuit.inputs)
        self._known_gates.extend(new_gates)
        self._known_ffs.extend(new_ffs)
        return new_gates, new_ffs, new_inputs

    def _make_gate_node(self, gate: Gate, frame: int) -> ImplicationNode:
        semantics = build_rule(gate)
        keys = [self.key(net, frame) for net in semantics.pins]
        widths = [net.width for net in semantics.pins]
        node = ImplicationNode(
            "%s@%d" % (gate.name, frame),
            keys,
            semantics.imply,
            num_outputs=semantics.num_outputs,
            tag=(gate, frame),
        )
        self.engine.add_node(node, widths=widths)
        self.gate_nodes.append(node)
        for key in node.output_keys:
            self.driver_node[key] = node
        if self.compiled:
            for slot in node.out_slots:
                self._set_driver_slot(slot, node)
        return node

    def _make_register_node(self, ff: DFF, frame: int) -> ImplicationNode:
        node = self._build_register_node(ff, frame)
        self.engine.add_node(
            node, widths=[self.net_of(key).width for key in node.keys]
        )
        self.register_nodes.append(node)
        self.driver_node[self.key(ff.q, frame + 1)] = node
        if self.compiled:
            self._set_driver_slot(node.out_slots[0], node)
        return node

    def _set_driver_slot(self, slot: int, node: ImplicationNode) -> None:
        driver_slot = self.driver_slot
        while len(driver_slot) <= slot:
            driver_slot.append(None)
        driver_slot[slot] = node

    def _build_register_node(self, ff: DFF, frame: int) -> ImplicationNode:
        keys: List[VarKey] = [self.key(ff.d, frame)]
        if ff.enable is not None:
            keys.append(self.key(ff.enable, frame))
        if ff.reset is not None:
            keys.append(self.key(ff.reset, frame))
        if ff.set is not None:
            keys.append(self.key(ff.set, frame))
        keys.append(self.key(ff.q, frame))
        keys.append(self.key(ff.q, frame + 1))
        rule = partial(
            imply_dff,
            ff.enable is not None,
            ff.reset is not None,
            ff.set is not None,
            ff.reset_value,
        )
        return ImplicationNode(
            "%s@%d->%d" % (ff.name, frame, frame + 1),
            keys,
            rule,
            num_outputs=1,
            tag=(ff, frame),
        )

    def _build_frame(self, frame: int) -> None:
        """Materialise one new frame (and the register nodes reaching it).

        Callers are responsible for scheduling the new nodes: extend_to
        enqueues whole frame ranges so re-activated frames catch up too.
        """
        gate_nodes: List[ImplicationNode] = []
        for gate in self._known_gates:
            gate_nodes.append(self._make_gate_node(gate, frame))
        self._frame_gate_nodes.append(gate_nodes)
        self._frame_register_nodes.append([])
        if frame > 0:
            crossing: List[ImplicationNode] = []
            for ff in self._known_ffs:
                crossing.append(self._make_register_node(ff, frame - 1))
            self._frame_register_nodes[frame - 1] = crossing
        # Free keys of this frame: primary inputs (every frame) and register
        # outputs (frame 0 only).
        for net in self.circuit.inputs[: self._scanned_inputs]:
            self.engine.assignment.register(self.key(net, frame), net.width)
        if frame == 0:
            for ff in self._known_ffs:
                self.engine.assignment.register(self.key(ff.q, 0), ff.q.width)
            self._apply_initial_state(self._known_ffs)
        self.built_frames += 1
        self.frames_constructed += 1

    def _apply_initial_state(self, ffs: List[DFF]) -> None:
        """Seed frame-0 register values for the given flip-flops."""
        for ff in ffs:
            if ff.q in self._explicit_initial_state:
                cube = BV3.from_int(ff.q.width, self._explicit_initial_state[ff.q])
            elif ff.init_value is not None and not self.free_initial_state:
                cube = BV3.from_int(ff.q.width, ff.init_value)
            else:
                continue
            self._initial_state_cubes[ff.q] = cube
            key = self.key(ff.q, 0)
            self.engine.assign(
                key, cube, propagate=False, reason=RootCause("base", key, cube)
            )

    # ------------------------------------------------------------------
    # Incremental expansion
    # ------------------------------------------------------------------
    def extend_to(self, num_frames: int) -> None:
        """Resize the active view to ``num_frames``, building missing frames.

        Growing beyond the built depth appends only the new frames' nodes to
        the live engine (the existing seed fixpoint is reused); shrinking
        deactivates the frames beyond the view without removing them, so a
        later deeper check re-activates them for free.  Must be called at the
        model's base decision level whenever the view actually changes.
        """
        if num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        if num_frames == self.num_frames:
            return  # built_frames >= num_frames is an invariant
        self._require_base_level("extend_to")
        old_view = self.num_frames
        if self.built_frames < num_frames:
            started = time.perf_counter()
            while self.built_frames < num_frames:
                self._build_frame(self.built_frames)
            if self.compiled:
                self.compile_seconds += time.perf_counter() - started
        self._set_view(num_frames)
        if old_view < num_frames:
            # Re-activated frames may have missed base-level updates (e.g.
            # monitors synced while they were inert): schedule every node of
            # the newly visible frames, not just the freshly built ones.
            self.engine.enqueue(
                node
                for frame in range(old_view, num_frames)
                for node in self._frame_gate_nodes[frame]
            )
            self.engine.enqueue(
                node
                for frame in range(max(old_view - 1, 0), num_frames - 1)
                for node in self._frame_register_nodes[frame]
            )
            self.engine.propagate()
        self._base_savepoint = self.engine.savepoint()
        self._refresh_init_taint()

    def sync_with_circuit(self) -> bool:
        """Materialise circuit elements added after the model was built.

        Property compilation appends monitor gates (and, for ``Delayed``
        expressions, registers) to the circuit; this method extends every
        built frame with nodes for them so a cached model stays equivalent
        to a freshly built one.  Returns ``True`` when anything was added.
        """
        new_gates, new_ffs, new_inputs = self._absorb_circuit()
        if not (new_gates or new_ffs or new_inputs):
            return False
        self._require_base_level("sync_with_circuit")
        started = time.perf_counter()
        # Fanout of existing nets can change when monitors are appended, so
        # the memoised per-slot decision-point verdicts are stale.
        self._decision_point_slots = []
        new_nodes: List[ImplicationNode] = []
        for frame in range(self.built_frames):
            for net in new_inputs:
                self.engine.assignment.register(self.key(net, frame), net.width)
            frame_nodes = self._frame_gate_nodes[frame]
            active = frame < self.num_frames
            for gate in new_gates:
                node = self._make_gate_node(gate, frame)
                node.active = active
                frame_nodes.append(node)
                if active:
                    new_nodes.append(node)
        for frame in range(self.built_frames - 1):
            active = frame < self.num_frames - 1
            crossing = self._frame_register_nodes[frame]
            for ff in new_ffs:
                node = self._make_register_node(ff, frame)
                node.active = active
                crossing.append(node)
                if active:
                    new_nodes.append(node)
        if new_ffs:
            for ff in new_ffs:
                self.engine.assignment.register(self.key(ff.q, 0), ff.q.width)
            self._apply_initial_state(new_ffs)
        self._active_nodes_cache = None
        self._node_order_cache = None
        if self.compiled:
            self.compile_seconds += time.perf_counter() - started
        self.engine.enqueue(new_nodes)
        self.engine.propagate()
        self._base_savepoint = self.engine.savepoint()
        self._refresh_init_taint()
        return True

    def _set_view(self, num_frames: int) -> None:
        old_view = self.num_frames
        self.num_frames = num_frames
        if old_view != num_frames:
            self._active_nodes_cache = None
            self._node_order_cache = None
        low, high = sorted((old_view, num_frames))
        toggled: List[ImplicationNode] = []
        for frame in range(low, high):
            for node in self._frame_gate_nodes[frame]:
                node.active = frame < num_frames
                toggled.append(node)
        for frame in range(max(low - 1, 0), high):
            if frame < len(self._frame_register_nodes):
                for node in self._frame_register_nodes[frame]:
                    node.active = frame < num_frames - 1
                    toggled.append(node)
        # Activation changes are invisible to the assignment trail, so the
        # unjustified frontier must be told to re-test the toggled nodes.
        self.engine.mark_dirty(toggled)

    @property
    def at_base_level(self) -> bool:
        """True when no decisions/goals are pending on top of the base model."""
        return self.engine.assignment.decision_level == self._base_level

    @property
    def is_clean(self) -> bool:
        """True when the engine is exactly at the last base fixpoint.

        Stricter than :attr:`at_base_level`: goals asserted *at* the base
        level (the incremental checker opens no decision level for them)
        grow the trail past the recorded base savepoint and are detected
        here, so a check that died without retracting cannot leak state
        into a reused model.
        """
        return self.engine.savepoint() == self._base_savepoint

    def _require_base_level(self, operation: str) -> None:
        if self.engine.assignment.decision_level != self._base_level:
            raise RuntimeError(
                "%s requires the model's base decision level %d (current: %d)"
                % (operation, self._base_level, self.engine.assignment.decision_level)
            )

    def active_nodes(self) -> List[ImplicationNode]:
        """Nodes of the active view, in the canonical (fresh-build) order:
        every frame's gate nodes first, then the cross-frame register nodes.
        """
        if self._active_nodes_cache is None:
            nodes: List[ImplicationNode] = []
            for frame in range(self.num_frames):
                nodes.extend(self._frame_gate_nodes[frame])
            for frame in range(self.num_frames - 1):
                nodes.extend(self._frame_register_nodes[frame])
            self._active_nodes_cache = nodes
        return self._active_nodes_cache

    def node_order(self) -> Dict[int, int]:
        """``id(node) -> rank`` over :meth:`active_nodes`.

        The unjustified frontier uses this to report nodes in the canonical
        fresh-build order, keeping incremental searches bit-identical to
        searches over a freshly built model.
        """
        if self._node_order_cache is None:
            self._node_order_cache = {
                id(node): index for index, node in enumerate(self.active_nodes())
            }
        return self._node_order_cache

    def _refresh_init_taint(self) -> None:
        """Absorb new base-fixpoint trail entries into the frame-taint set.

        A key is tainted when its base value is frame-anchored: it was
        seeded from an initial-state cube (``base`` root cause), derived by
        a register crossing node (register-boundary facts have no frame-0
        analog, because frame-0 register outputs are free), or refined by a
        node with a tainted pin.  The scan is incremental over the trail,
        so repeated extensions stay O(new entries); it must only run at the
        base level, where the trail holds exactly the shared base fixpoint.
        """
        assignment = self.engine.assignment
        tainted = self.init_tainted
        if self.compiled:
            # Slot trail entries carry (slot, ..., reason); translating just
            # the tainted keys avoids materialising a BV3 per entry.
            key_of = assignment.key_of
            for index in range(self._taint_pos, assignment.trail_length):
                slot, reason = assignment.trail_slot_reason(index)
                if isinstance(reason, RootCause):
                    if reason.kind == "base":
                        tainted.add(key_of(slot))
                elif reason is not None:
                    tag = reason.tag
                    if (
                        isinstance(tag, tuple) and tag and isinstance(tag[0], DFF)
                    ) or any(k in tainted for k in reason.keys):
                        tainted.add(key_of(slot))
            self._taint_pos = assignment.trail_length
            return
        for index in range(self._taint_pos, assignment.trail_length):
            key, _previous, reason = assignment.trail_entry(index)
            if isinstance(reason, RootCause):
                if reason.kind == "base":
                    tainted.add(key)
            elif reason is not None:
                tag = reason.tag
                if (isinstance(tag, tuple) and tag and isinstance(tag[0], DFF)) or any(
                    k in tainted for k in reason.keys
                ):
                    tainted.add(key)
        self._taint_pos = assignment.trail_length

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @staticmethod
    def key(net: Net, frame: int) -> VarKey:
        """The variable key of ``net`` in time frame ``frame``."""
        return (net, frame)

    @staticmethod
    def net_of(key: VarKey) -> Net:
        """The net component of a key."""
        return key[0]

    @staticmethod
    def frame_of(key: VarKey) -> int:
        """The frame component of a key."""
        return key[1]

    def value(self, net: Net, frame: int) -> BV3:
        """Current cube of a net in a frame."""
        return self.engine.assignment.get(self.key(net, frame))

    def assign(self, net: Net, frame: int, cube: BV3, propagate: bool = True) -> bool:
        """Refine a net's cube in a frame (convenience wrapper)."""
        return self.engine.assign(self.key(net, frame), cube, propagate=propagate)

    def propagate(self) -> None:
        """Run implication to fixpoint."""
        self.engine.propagate()

    # ------------------------------------------------------------------
    # Classification helpers used by the ATPG
    # ------------------------------------------------------------------
    def is_control_key(self, key: VarKey) -> bool:
        """True when the key refers to a control (1-bit or forced) net."""
        return is_control(self.net_of(key))

    def is_decision_point(self, key: VarKey) -> bool:
        """Candidate decision points per the paper: control primary inputs,
        flip-flop outputs, comparator outputs and multi-fanout control nets."""
        net = self.net_of(key)
        frame = self.frame_of(key)
        if not self.is_control_key(key):
            return False
        if net.is_primary_input():
            return True
        driver = net.driver
        if driver is None:
            return frame == 0  # undriven (pseudo) inputs at frame 0
        if isinstance(driver, DFF):
            return frame == 0
        if isinstance(driver, Comparator):
            return True
        return net.fanout() > 1

    def is_decision_point_slot(self, slot: int) -> bool:
        """Memoised per-slot :meth:`is_decision_point` (compiled models).

        The verdict is a pure function of the key while the circuit is
        static; :meth:`sync_with_circuit` drops the memo because appended
        monitors can change net fanout.
        """
        cache = self._decision_point_slots
        while len(cache) <= slot:
            cache.append(None)
        verdict = cache[slot]
        if verdict is None:
            verdict = cache[slot] = self.is_decision_point(
                self.engine.assignment.key_of(slot)
            )
        return verdict

    def free_keys(self) -> List[VarKey]:
        """Keys with no driving node: primary inputs in every frame and
        frame-0 register outputs."""
        keys: List[VarKey] = []
        for frame in range(self.num_frames):
            for net in self.circuit.inputs:
                keys.append(self.key(net, frame))
        for ff in self.circuit.flip_flops:
            keys.append(self.key(ff.q, 0))
        return keys

    def input_assignment(self) -> List[Dict[str, int]]:
        """Concrete per-frame input values (x bits filled with 0).

        Used to turn a successful justification into a simulatable test
        sequence.
        """
        frames: List[Dict[str, int]] = []
        for frame in range(self.num_frames):
            values: Dict[str, int] = {}
            for net in self.circuit.inputs:
                cube = self.value(net, frame)
                values[net.name] = cube.min_value()
            frames.append(values)
        return frames

    def initial_state_assignment(self) -> Dict[str, int]:
        """Concrete frame-0 register values (x bits filled with 0)."""
        result: Dict[str, int] = {}
        for ff in self.circuit.flip_flops:
            cube = self.value(ff.q, 0)
            result[ff.q.name] = cube.min_value()
        return result

    def __repr__(self) -> str:
        return "UnrolledModel(%r, frames=%d/%d built, nodes=%d)" % (
            self.circuit.name,
            self.num_frames,
            self.built_frames,
            len(self.gate_nodes) + len(self.register_nodes),
        )
