"""Word-level ATPG (Section 3 of the paper).

The justification engine makes branch-and-bound decisions on *control*
signals only, guided by the legal-1/legal-0 probabilities and legal
assignment bias of the paper, over a time-frame expanded model of the
circuit.  Datapath value requirements are deliberately left unjustified and
handed to the modular arithmetic constraint solver.

The search itself (:mod:`repro.atpg.justify`, with the decision ranking of
:mod:`repro.atpg.decisions` and :mod:`repro.atpg.probability`) resolves
lazily: it loads on the first search, not for a check its requirement
fixpoint decides.
"""

from repro.atpg.timeframe import JustifierLimits, JustifyOutcome, UnrolledModel, VarKey
from repro.atpg.estg import ExtendedStateTransitionGraph

#: name -> module of every name that loads with the search.
_LAZY = {
    "legal_one_probabilities": "repro.atpg.probability",
    "legal_assignment_bias": "repro.atpg.probability",
    "DecisionCandidate": "repro.atpg.decisions",
    "find_decision_candidates": "repro.atpg.decisions",
    "Justifier": "repro.atpg.justify",
    "JustifyResult": "repro.atpg.justify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "UnrolledModel",
    "VarKey",
    "legal_one_probabilities",
    "legal_assignment_bias",
    "DecisionCandidate",
    "find_decision_candidates",
    "ExtendedStateTransitionGraph",
    "Justifier",
    "JustifierLimits",
    "JustifyOutcome",
    "JustifyResult",
]
