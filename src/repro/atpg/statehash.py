"""Process-stable fingerprints and structural property digests.

The persistent knowledge base, the ESTG's learned-cube stores and the fleet
router all key facts by 64-bit hashes that must not drift between processes
or machines, so every fingerprint in the repo is built here on one FNV-1a:

* :func:`fnv1a` is the shared hash function;
* :func:`hash_cube_literals` fingerprints learned-cube literals;
* :func:`property_digest` / :func:`property_search_digest` hash a property
  expression *structurally* (alpha-renamed: the digest depends only on the
  expression's shape and the free design-signal names it binds, never on
  Python ``repr`` details or object identity), so equivalent properties can
  share learned facts across processes.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.bitvector import BV3

#: 64-bit FNV-1a parameters (stable across processes, unlike ``hash``).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a over ``data``.

    Every persistent fingerprint in the repo (cube fingerprints, property
    digests, the knowledge-base keys in :mod:`repro.kb`) goes through this
    one function so the constants live in exactly one place.
    """
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def hash_cube_literals(literals: Iterable[Tuple[str, int, BV3]]) -> int:
    """A stable 64-bit fingerprint of learned-cube literals.

    ``literals`` are (signal name, frame position, value cube) triples; the
    fingerprint is order-independent (literals are canonically sorted) and
    independent of Python's randomised ``hash``, so the learned-cube stores
    of two processes deduplicate identically.
    """
    items = sorted(
        "%s@%d=%s" % (name, position, cube) for name, position, cube in literals
    )
    return fnv1a(";".join(items).encode("utf-8"))


# ----------------------------------------------------------------------
# Structural property digests
# ----------------------------------------------------------------------
#: operators whose operand order does not change the property's meaning;
#: their operands are digest-sorted so ``a == b`` and ``b == a`` share facts.
_COMMUTATIVE_OPS = frozenset({"==", "!=", "&", "|", "^", "+", "*"})


def _canonical_expr(expr, normalize: bool) -> str:
    """Canonical serialisation of a property expression.

    The serialisation is *alpha-renamed* in the sense that it depends only on
    the expression's structure and the design-signal names it binds -- never
    on Python object identities, ``repr`` formatting, or term counts (the
    ``repr`` of ``OneHot``/``AtMostOneHot`` elides its terms, which is why
    fingerprints must not be built from ``repr``).  With ``normalize`` the
    operands of commutative/associative operators are sorted so logically
    identical spellings serialise identically; without it the spelling order
    is preserved (used for search-procedure-sensitive keys, where operand
    order changes monitor structure and hence decision order).
    """
    # Imported once per digest, not at every node: repro.properties imports
    # this module, so the import cannot sit at the top.
    from repro.properties import spec

    def walk(node) -> str:
        if isinstance(node, spec.Signal):
            return "s:%s" % node.name
        if isinstance(node, spec.Const):
            return "c:%d/%s" % (node.value, node.width)
        if isinstance(node, spec.BinOp):
            parts = [walk(node.lhs), walk(node.rhs)]
            if normalize and node.op in _COMMUTATIVE_OPS:
                parts.sort()
            return "b:%s(%s)" % (node.op, ",".join(parts))
        if isinstance(node, spec.Not):
            return "not(%s)" % walk(node.expr)
        if isinstance(node, (spec.And, spec.Or, spec.OneHot, spec.AtMostOneHot)):
            tag = type(node).__name__.lower()
            parts = [walk(term) for term in node.terms]
            if normalize:
                parts.sort()
            return "%s(%s)" % (tag, ",".join(parts))
        if isinstance(node, spec.Implies):
            return "imp(%s,%s)" % (walk(node.antecedent), walk(node.consequent))
        if isinstance(node, spec.Delayed):
            return "d%d/%d(%s)" % (node.cycles, node.initial, walk(node.expr))
        # Forward compatibility: unknown node kinds fall back to their repr,
        # prefixed so they can never collide with the tagged forms above.
        return "x:%s:%r" % (type(node).__name__, node)

    return walk(expr)


def property_digest(expr) -> int:
    """Stable 64-bit structural digest of a property expression.

    Commutative operators are operand-sorted, so equivalent spellings of the
    same property (``a == b`` vs ``b == a``, reordered conjunctions) digest
    identically and share *semantic* facts -- learned cubes are theorems
    about the design, valid for any property with the same meaning.  The
    digest is process-stable (pure FNV-1a over a canonical serialisation),
    which is what lets the knowledge base key facts by it on disk.
    """
    return fnv1a(_canonical_expr(expr, normalize=True).encode("utf-8"))


def property_search_digest(expr) -> int:
    """Stable 64-bit digest of the *exact* spelling of a property expression.

    Unlike :func:`property_digest` this preserves operand order.
    :func:`~repro.properties.environment.environment_identity` keys
    assumptions by it, so the on-disk model keys of the knowledge base
    depend on it and it must never change.
    """
    return fnv1a(_canonical_expr(expr, normalize=False).encode("utf-8"))

