"""The join-ordering oracle the SPARQL evaluator's differential compares against.

``repro.rdf.sparql.evaluator._order_patterns`` scores each pattern once and
keeps the scores up to date as variables become bound.  The function here is
the one it replaced: every remaining pattern is scored again at every step.
Both must return the same order, pattern for pattern.
"""

from repro.rdf.sparql.ast import PropertyPath
from repro.rdf.terms import Variable


def naive_order_patterns(patterns):
    remaining = list(patterns)
    ordered = []
    bound_variables = set()

    def score(pattern):
        value = 0
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Variable):
                if term.name in bound_variables:
                    value += 4
            elif isinstance(term, PropertyPath):
                value += 1
            else:
                value += 3
        return value

    while remaining:
        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        for variable in best.variables():
            bound_variables.add(variable.name)
    return ordered
