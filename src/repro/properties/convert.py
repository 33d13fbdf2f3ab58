"""Compilation of property expressions into monitor logic and frame requirements.

The property-to-constraint converter of the paper turns the (inverted)
assertion into value requirements in different time frames.  We realise this
by compiling the property expression into a 1-bit *monitor net* built from
the same word-level primitives as the design, so that every implication and
justification technique applies to the property logic as well.  The
requirement then reduces to a single-bit assignment at the target frame:
``monitor = 0`` to generate an assertion counter-example, ``monitor = 1`` to
generate a witness.

The environmental setup is lowered into the same circuit once, by
:meth:`PropertyCompiler.compile_environment`: every engine then enforces the
same pins, the same constraint nets and the same initial state.

Many properties and environments may be compiled into one circuit.
:func:`check_scope` is what one check of them sees: the design plus the
logic of its own monitor and environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.atpg.statehash import property_digest
from repro.netlist.circuit import Circuit
from repro.netlist.gates import Gate
from repro.netlist.nets import Net, NetKind
from repro.netlist.seq import DFF
from repro.properties.environment import Environment, environment_identity
from repro.properties.parse import format_expression
from repro.properties.spec import (
    And,
    Assertion,
    AtMostOneHot,
    BinOp,
    Const,
    Delayed,
    Expression,
    Implies,
    Not,
    OneHot,
    Or,
    Property,
    Signal,
    expression_memo,
)


@expression_memo
def _rendered(expr: Expression) -> str:
    # The compile memo's key for an expression, rendered once per tree.
    return format_expression(expr)


@dataclass
class CompiledProperty:
    """A property compiled into monitor logic inside the circuit."""

    prop: Property
    monitor: Net
    #: value the monitor must take at the target frame to produce a
    #: counter-example (assertions) or a witness (witness properties).
    goal_value: int
    #: number of leading frames in which the property is not meaningful
    #: because Delayed() registers still hold their initial values.
    warmup_frames: int
    #: ``(property_digest(expr), goal_value)``: the identity of the learned
    #: facts that depend on this goal (cubes scoped to it, proven-FAIL
    #: memos), computed once here instead of at every target frame.
    fingerprint: Tuple[int, int]

    @property
    def is_assertion(self) -> bool:
        return isinstance(self.prop, Assertion)


@dataclass
class LoweredEnvironment:
    """An environment lowered into a circuit, as every engine enforces it."""

    #: net name -> value (wrapped to the net's width) held in every frame.
    pins: Dict[str, int]
    #: 1-bit nets that must be 1 in every frame: one per assumption, then
    #: one per one-hot group.
    constraints: Tuple[Net, ...]
    #: frame-0 register values: the explicit initial state if given, else
    #: the one the initialization sequence derives, else ``None`` (power-on).
    initial_state: Optional[Dict[str, int]]
    #: :func:`~repro.properties.environment.environment_identity` of the
    #: environment and the initial state above: the key every consumer of
    #: this lowering (model cache, knowledge base) shares.
    identity: Tuple[str, str]


def design_extent(circuit: Circuit) -> Tuple[int, int]:
    """How many of the circuit's nets and gates are its design: ``(nets, gates)``.

    The design is the circuit as it stood when the first
    :class:`PropertyCompiler` touched it.  A circuit numbers its nets and
    gates in creation order, so everything compiled into it later (monitors,
    environment constraint nets) numbers past the design.  A circuit that
    no compiler has touched is all design.
    """
    extent = getattr(circuit, "_design_extent", None)
    if extent is None:
        return len(circuit.nets), len(circuit.gates)
    return extent


@dataclass(frozen=True)
class CheckScope:
    """What one check sees of its circuit: the design plus its own logic.

    On a circuit that holds nothing but the design and this check's monitor
    and environment, the scope is the whole circuit, in the circuit's order.
    """

    circuit: Circuit
    #: the design's gates are the first ``design_gates`` of ``circuit.gates``.
    design_gates: int
    #: the gates compiled after the design that the check reads.
    own_gates: FrozenSet[Gate] = frozenset()

    @classmethod
    def whole(cls, circuit: Circuit) -> "CheckScope":
        """A scope of everything the circuit holds."""
        return cls(circuit, len(circuit.gates))

    def sees(self, gate: Gate) -> bool:
        return gate.uid < self.design_gates or gate in self.own_gates

    @property
    def flip_flops(self) -> List[DFF]:
        return [ff for ff in self.circuit.flip_flops if self.sees(ff)]

    def topological_order(self) -> List[Gate]:
        """The combinational gates in scope, in the circuit's topological order."""
        return [gate for gate in self.circuit.topological_order() if self.sees(gate)]


def check_scope(
    circuit: Circuit, monitor: Net, environment: LoweredEnvironment
) -> CheckScope:
    """The scope of a check of ``monitor`` under a lowered environment.

    The design, plus the cone of the monitor, the constraint nets and the
    pinned nets, walked only through logic compiled after the design.  Other
    properties and environments compiled into the same circuit stay out, so
    an engine that lowers or reports every register of its scope answers
    the same whatever the circuit was checked for before.
    """
    design_nets, design_gates = design_extent(circuit)
    own_gates = set()
    pending = [monitor, *environment.constraints]
    pending += [circuit.net(name) for name in environment.pins]
    while pending:
        net = pending.pop()
        gate = net.driver
        if net.uid >= design_nets and gate is not None and gate not in own_gates:
            own_gates.add(gate)
            pending.extend(gate.inputs)
    return CheckScope(circuit, design_gates, frozenset(own_gates))


class PropertyCompiler:
    """Compiles property expressions into monitor nets of a circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._counter = 0
        circuit._design_extent = design_extent(circuit)

    # ------------------------------------------------------------------
    def compile(self, prop: Property) -> CompiledProperty:
        """Compile a property; the monitor gates are added to the circuit.

        Compiling the same property into the same circuit twice returns the
        first compilation's monitor instead of growing the netlist.  This
        keeps long-lived circuits (a daemon worker's resident design) from
        accumulating one monitor cone per job, and keeps monitor net names
        -- which appear in reported traces -- deterministic across repeats.
        """
        memo = self._memo()
        key = self._memo_key(prop)
        if key is not None and key in memo:
            return memo[key]
        monitor, delay_depth = self._compile_bool(prop.expr)
        named = self.circuit.buf(monitor, name=self._fresh("monitor_%s" % prop.name))
        goal_value = 0 if isinstance(prop, Assertion) else 1
        compiled = CompiledProperty(
            prop=prop,
            monitor=named,
            goal_value=goal_value,
            warmup_frames=delay_depth,
            fingerprint=(property_digest(prop.expr), goal_value),
        )
        if key is not None:
            memo[key] = compiled
        return compiled

    # ------------------------------------------------------------------
    def _memo(self) -> dict:
        memo = getattr(self.circuit, "_property_monitor_memo", None)
        if memo is None:
            memo = {}
            self.circuit._property_monitor_memo = memo
        return memo

    @staticmethod
    def _memo_key(prop: Property):
        # The textual render is a structural identity for the expression;
        # expressions it cannot render (non-identifier signal names) are
        # simply not memoised.
        try:
            return (type(prop).__name__, prop.name, _rendered(prop.expr))
        except Exception:
            return None

    def compile_condition(self, expr: Expression, name: str = "cond") -> Net:
        """Compile a bare 1-bit condition (used for environment constraints)."""
        net, _ = self._compile_bool(expr)
        return self.circuit.buf(net, name=self._fresh(name))

    def compile_environment(
        self,
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> LoweredEnvironment:
        """Lower an environment (and the initial state) into the circuit.

        Memoised on the circuit like :meth:`compile`, keyed by
        :func:`~repro.properties.environment.environment_identity` of the
        arguments: checking many properties (or many daemon jobs) under one
        environment compiles its constraint nets once, and every engine sees
        the same nets and the same initial state.
        """
        environment = environment if environment is not None else Environment()
        memo = self._memo()
        key = ("environment",) + environment_identity(environment, initial_state)
        if key in memo:
            return memo[key]
        pins = {
            name: value & self.circuit.net(name).mask()
            for name, value in environment.pinned.items()
        }
        constraints = [
            self.compile_condition(expr, name="assume")
            for expr in environment.assumptions
        ]
        constraints += [
            self.compile_condition(
                OneHot(*[Signal(name) for name in group]), name="onehot"
            )
            for group in environment.one_hot_groups
        ]
        if initial_state is not None:
            derived = dict(initial_state)
        elif environment.initialization is not None:
            derived = environment.initialization.derive_initial_state(self.circuit)
        else:
            derived = None
        lowered = LoweredEnvironment(
            pins, tuple(constraints), derived,
            environment_identity(environment, derived),
        )
        memo[key] = lowered
        return lowered

    # ------------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        while True:
            self._counter += 1
            candidate = "%s_%d" % (prefix, self._counter)
            if not self.circuit.has_net(candidate):
                return candidate

    def _compile_bool(self, expr: Expression) -> Tuple[Net, int]:
        """Compile an expression to a 1-bit net; returns (net, delay depth)."""
        net, depth = self._compile(expr)
        if net.width != 1:
            net = self.circuit.ne(net, 0)
        return net, depth

    def _compile(self, expr: Expression) -> Tuple[Net, int]:
        circuit = self.circuit

        if isinstance(expr, Signal):
            return circuit.net(expr.name), 0

        if isinstance(expr, Const):
            width = expr.width if expr.width is not None else max(1, expr.value.bit_length())
            return circuit.const(expr.value, width), 0

        if isinstance(expr, BinOp):
            lhs, depth_l = self._compile(expr.lhs)
            rhs, depth_r = self._compile(expr.rhs)
            lhs, rhs = self._match_widths(lhs, rhs)
            depth = max(depth_l, depth_r)
            op = expr.op
            if op in ("==", "!=", "<", "<=", ">", ">="):
                build = {
                    "==": circuit.eq, "!=": circuit.ne, "<": circuit.lt,
                    "<=": circuit.le, ">": circuit.gt, ">=": circuit.ge,
                }[op]
                return build(lhs, rhs), depth
            if op == "&":
                return circuit.and_(lhs, rhs), depth
            if op == "|":
                return circuit.or_(lhs, rhs), depth
            if op == "^":
                return circuit.xor(lhs, rhs), depth
            if op == "+":
                return circuit.add(lhs, rhs), depth
            if op == "-":
                return circuit.sub(lhs, rhs), depth
            if op == "*":
                return circuit.mul(lhs, rhs), depth
            raise ValueError("unsupported operator %r" % (op,))

        if isinstance(expr, Not):
            net, depth = self._compile_bool(expr.expr)
            return circuit.not_(net), depth

        if isinstance(expr, And):
            nets, depth = self._compile_terms(expr.terms)
            return circuit.and_(*nets), depth

        if isinstance(expr, Or):
            nets, depth = self._compile_terms(expr.terms)
            return circuit.or_(*nets), depth

        if isinstance(expr, Implies):
            antecedent, depth_a = self._compile_bool(expr.antecedent)
            consequent, depth_c = self._compile_bool(expr.consequent)
            return circuit.or_(circuit.not_(antecedent), consequent), max(depth_a, depth_c)

        if isinstance(expr, Delayed):
            inner, depth = self._compile(expr.expr)
            current = inner
            for _ in range(expr.cycles):
                current = circuit.dff(
                    current,
                    init_value=expr.initial,
                    name=self._fresh("monitor_delay"),
                    kind=NetKind.DATA if current.width > 1 else NetKind.CONTROL,
                )
            return current, depth + expr.cycles

        if isinstance(expr, OneHot):
            nets, depth = self._compile_terms(expr.terms)
            return self._one_hot(nets, exactly=True), depth

        if isinstance(expr, AtMostOneHot):
            nets, depth = self._compile_terms(expr.terms)
            return self._one_hot(nets, exactly=False), depth

        raise TypeError("cannot compile property expression %r" % (expr,))

    def _compile_terms(self, terms: List[Expression]) -> Tuple[List[Net], int]:
        nets: List[Net] = []
        depth = 0
        for term in terms:
            net, term_depth = self._compile_bool(term)
            nets.append(net)
            depth = max(depth, term_depth)
        return nets, depth

    def _match_widths(self, lhs: Net, rhs: Net) -> Tuple[Net, Net]:
        if lhs.width == rhs.width:
            return lhs, rhs
        width = max(lhs.width, rhs.width)
        return self.circuit.zext(lhs, width), self.circuit.zext(rhs, width)

    def _one_hot(self, nets: List[Net], exactly: bool) -> Net:
        """Build a one-hot (or at-most-one-hot) checker from 1-bit nets.

        The pairwise formulation keeps the logic shallow: no two terms are
        simultaneously 1, and (for the exact variant) at least one term is 1.
        """
        circuit = self.circuit
        no_pair = None
        for i in range(len(nets)):
            for j in range(i + 1, len(nets)):
                pair = circuit.nand(nets[i], nets[j])
                no_pair = pair if no_pair is None else circuit.and_(no_pair, pair)
        if not exactly:
            return no_pair
        any_set = circuit.or_(*nets) if len(nets) > 1 else nets[0]
        return circuit.and_(no_pair, any_set)
