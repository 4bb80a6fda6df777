"""One-pass settling against synchronous stepping, on real successor maps.

``flow.stabilize`` fires each point once, deepest first; ``flow.iterate``
fires every occupied point at once, step after step. Both run on
``build_flow`` maps of spaces on the positions, graph and matrix backends:
the instance documents of ``test_e2e`` with their own chains, and the
clustered spaces of ``test_trees``, whose long clusters are large
components, with drawn chains. They must end on the same indicator, or
both raise; settling fires at most ||a|| times. Each chain's case (1, 2, 3a
or 3b) is read as the pipeline reads it; the pinned documents reach all
four on every backend.
"""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_e2e import LONG_LINE_DOC, documents
from test_golden import GRAPH_DOC, HINTS_DOC, MATRIX_DOC
from test_trees import PARAMS, clustered_spaces

from naivea.augment import augment
from naivea.chains import l1_norm
from naivea.errors import InternalInvariantError, MalformedInputError, PreconditionError
from naivea.flow import build_flow, iterate, stabilize
from naivea.instance_io import instance_from_doc
from naivea.space import CLS_BOUNDED_SMALL, CLS_UNBOUNDED, rips_components
from naivea.tailor import classify, prepare

RAISED = "raised"


def settle_both_ways(flow, comp, chain) -> str:
    """Compare the two flows of ``chain``; the case its support falls in."""
    try:
        settled, firings = stabilize(flow, chain)
    except InternalInvariantError:
        with pytest.raises(InternalInvariantError):
            for _ in iterate(flow, chain):
                pass
        return RAISED
    final = chain
    for final in iterate(flow, chain):
        pass
    assert settled == final
    assert firings <= l1_norm(chain)
    if comp.cls == CLS_UNBOUNDED:
        return "1"
    if comp.cls == CLS_BOUNDED_SMALL:
        return "2"
    return "3b" if any(isinstance(p, tuple) for p in settled) else "3a"


def settle_document(doc) -> Counter:
    """Settle every point's chain both ways; the cases reached (empty when
    the document is malformed or its parameters are out of range)."""
    try:
        instance = instance_from_doc(doc)
        params = instance.params
        prep = prepare(instance.space, instance.family, params.R, params.epsilon, params.S)
    except (MalformedInputError, PreconditionError):
        return Counter()
    decomp, chains = prep.decomposition, instance.family.chains
    return Counter(
        settle_both_ways(prep.flow_map, decomp.components[decomp.owner[x]], chains[x])
        for x in instance.space.points
    )


def on_backend(doc, kind):
    """``doc``, a unit line in point order, with its metric as ``kind``."""
    ids = doc["space"]["points"]
    if kind == "graph":
        metric = {"type": "graph", "edges": [[u, v, 1] for u, v in zip(ids, ids[1:])]}
    else:
        n = len(ids)
        metric = {"type": "matrix", "entries": [[abs(i - j) for j in range(n)] for i in range(n)]}
    return {**doc, "space": {"points": ids, "metric": metric}}


PINNED = {
    "positions": [LONG_LINE_DOC, HINTS_DOC],
    "graph": [on_backend(LONG_LINE_DOC, "graph"), GRAPH_DOC],
    "matrix": [on_backend(LONG_LINE_DOC, "matrix"), MATRIX_DOC],
}


@pytest.mark.parametrize("backend", sorted(PINNED))
def test_pinned_documents_reach_every_case(backend):
    cases = Counter()
    for doc in PINNED[backend]:
        assert doc["space"]["metric"]["type"] == backend
        cases += settle_document(doc)
    assert set(cases) == {"1", "2", "3a", "3b"}


@settings(max_examples=150, deadline=None)
@given(doc=documents())
def test_settling_matches_stepping_on_documents(doc):
    settle_document(doc)


@st.composite
def clustered_flows(draw):
    """A clustered space's flow map and up to 8 chains, each on one
    component; about half of them load its basepoint, whose excess goes
    straight to the tail."""
    space, _ = draw(clustered_spaces())
    decomp, _ = classify(space, rips_components(space, PARAMS.S), PARAMS)
    flow = build_flow(augment(space, decomp, PARAMS))
    chains = []
    for _ in range(draw(st.integers(1, 8))):
        comp = decomp.components[draw(st.integers(0, len(decomp.components) - 1))]
        support = draw(st.lists(st.sampled_from(comp.points), min_size=1, max_size=6))
        if draw(st.booleans()):
            support.append(comp.basepoint)
        chain = {p: draw(st.integers(1, 4)) for p in support}
        chains.append((comp, chain))
    return flow, chains


@settings(max_examples=80, deadline=None)
@given(clustered_flows())
def test_settling_matches_stepping_on_clustered_spaces(drawn):
    flow, chains = drawn
    for comp, chain in chains:
        settle_both_ways(flow, comp, chain)
