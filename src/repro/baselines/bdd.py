"""A reduced ordered binary decision diagram (ROBDD) package.

The paper positions its word-level ATPG approach against BDD-based symbolic
model checking (McMillan's SMV, VIS): BDDs can represent huge state sets
compactly, but their size -- and therefore the memory footprint of the model
checker -- can explode with the number of registers.  To make that comparison
measurable inside this reproduction, this module implements a small but
complete ROBDD manager:

* hash-consed nodes with a unique table (canonical form),
* the ``ite`` (if-then-else) operator with a computed table, from which all
  Boolean connectives are derived,
* existential quantification over variable sets (for image computation),
* cofactor/restrict and variable renaming (next-state to current-state),
* node counting and peak-size tracking, the statistics the scalability
  benchmark reports.

Variables are identified by integer *levels*: smaller level = closer to the
root.  The manager never garbage-collects; peak node count is exactly what
the benchmark wants to observe.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Node indices of the two terminal nodes.
FALSE = 0
TRUE = 1


class BddLimitExceeded(RuntimeError):
    """Raised when the manager grows beyond its configured node budget."""


class BddManager:
    """Hash-consed ROBDD node store and Boolean operations.

    ``max_nodes`` bounds the total number of decision nodes ever allocated;
    exceeding it raises :class:`BddLimitExceeded`, which the symbolic checker
    turns into an ABORTED verdict (the "memory explosion" outcome the
    scalability benchmark is designed to expose).
    """

    def __init__(self, num_variables: int = 0, max_nodes: Optional[int] = None):
        #: node table: index -> (level, low, high); entries 0/1 are terminals.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._quantify_cache: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self._rename_cache: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], int] = {}
        self.num_variables = num_variables
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def new_variable(self) -> int:
        """Allocate a fresh variable level and return its node."""
        level = self.num_variables
        self.num_variables += 1
        return self.variable(level)

    def variable(self, level: int) -> int:
        """The BDD of the single variable at ``level``."""
        if level < 0:
            raise ValueError("variable level must be non-negative")
        self.num_variables = max(self.num_variables, level + 1)
        return self._make_node(level, FALSE, TRUE)

    def _make_node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        if self.max_nodes is not None and len(self._nodes) - 2 >= self.max_nodes:
            raise BddLimitExceeded(
                "BDD grew beyond %d nodes" % (self.max_nodes,)
            )
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        return index

    def level_of(self, node: int) -> int:
        """The decision level of a node (terminals sort below everything)."""
        if node in (FALSE, TRUE):
            return self.num_variables + 1
        return self._nodes[node][0]

    def cofactors(self, node: int, level: int) -> Tuple[int, int]:
        """(low, high) cofactors of ``node`` with respect to ``level``."""
        if node in (FALSE, TRUE) or self._nodes[node][0] != level:
            return node, node
        _, low, high = self._nodes[node]
        return low, high

    # ------------------------------------------------------------------
    # Core operator
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self.level_of(f), self.level_of(g), self.level_of(h))
        f_low, f_high = self.cofactors(f, level)
        g_low, g_high = self.cofactors(g, level)
        h_low, h_high = self.cofactors(h, level)
        low = self.ite(f_low, g_low, h_low)
        high = self.ite(f_high, g_high, h_high)
        result = self._make_node(level, low, high)
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Negation."""
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, TRUE, g)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.not_(g), g)

    def xnor(self, f: int, g: int) -> int:
        """Equivalence."""
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, TRUE)

    def and_all(self, terms: Iterable[int]) -> int:
        """Conjunction of many terms."""
        result = TRUE
        for term in terms:
            result = self.and_(result, term)
            if result == FALSE:
                return FALSE
        return result

    def or_all(self, terms: Iterable[int]) -> int:
        """Disjunction of many terms."""
        result = FALSE
        for term in terms:
            result = self.or_(result, term)
            if result == TRUE:
                return TRUE
        return result

    def constant(self, value: bool) -> int:
        """The terminal node for a Boolean constant."""
        return TRUE if value else FALSE

    # ------------------------------------------------------------------
    # Quantification, restriction, renaming
    # ------------------------------------------------------------------
    def restrict(self, f: int, level: int, value: bool) -> int:
        """Cofactor of ``f`` with the variable at ``level`` fixed."""
        if f in (FALSE, TRUE):
            return f
        node_level, low, high = self._nodes[f]
        if node_level > level:
            return f
        if node_level == level:
            return high if value else low
        new_low = self.restrict(low, level, value)
        new_high = self.restrict(high, level, value)
        return self._make_node(node_level, new_low, new_high)

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existential quantification over the given variable levels."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._exists(f, level_set)

    def _exists(self, f: int, levels: FrozenSet[int]) -> int:
        if f in (FALSE, TRUE):
            return f
        key = (f, levels)
        cached = self._quantify_cache.get(key)
        if cached is not None:
            return cached
        node_level, low, high = self._nodes[f]
        low_result = self._exists(low, levels)
        high_result = self._exists(high, levels)
        if node_level in levels:
            result = self.or_(low_result, high_result)
        else:
            result = self._make_node(node_level, low_result, high_result)
        self._quantify_cache[key] = result
        return result

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variable levels according to ``mapping``.

        The mapping must be monotone (it may not change the relative order of
        the variables appearing in ``f``); the next-state to current-state
        renaming used by image computation satisfies this when the two rails
        are interleaved.
        """
        if not mapping:
            return f
        items = tuple(sorted(mapping.items()))
        for (src_a, dst_a), (src_b, dst_b) in zip(items, items[1:]):
            if not (src_a < src_b and dst_a < dst_b):
                raise ValueError("rename mapping must preserve variable order")
        return self._rename(f, items)

    def _rename(self, f: int, items: Tuple[Tuple[int, int], ...]) -> int:
        if f in (FALSE, TRUE):
            return f
        key = (f, items)
        cached = self._rename_cache.get(key)
        if cached is not None:
            return cached
        node_level, low, high = self._nodes[f]
        new_level = dict(items).get(node_level, node_level)
        result = self._make_node(
            new_level, self._rename(low, items), self._rename(high, items)
        )
        self._rename_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def node_count(self, f: int) -> int:
        """Number of distinct decision nodes reachable from ``f``."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in (FALSE, TRUE) or node in seen:
                continue
            seen.add(node)
            _, low, high = self._nodes[node]
            stack.extend((low, high))
        return len(seen)

    @property
    def total_nodes(self) -> int:
        """Total nodes ever created (the peak memory proxy)."""
        return len(self._nodes) - 2

    def satisfy_one(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (level -> value), or ``None``."""
        if f == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node != TRUE:
            level, low, high = self._nodes[node]
            if high != FALSE:
                assignment[level] = True
                node = high
            else:
                assignment[level] = False
                node = low
        return assignment

    def count_solutions(self, f: int, num_variables: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_variables`` variables."""
        total_vars = num_variables if num_variables is not None else self.num_variables
        cache: Dict[int, int] = {}

        def count(node: int) -> int:
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1 << total_vars
            cached = cache.get(node)
            if cached is not None:
                return cached
            level, low, high = self._nodes[node]
            # Each cofactor's count already assumes all variables are free;
            # fixing this node's variable halves each contribution.
            result = (count(low) + count(high)) // 2
            cache[node] = result
            return result

        return count(f)

    def __repr__(self) -> str:
        return "BddManager(%d variables, %d nodes)" % (self.num_variables, self.total_nodes)
