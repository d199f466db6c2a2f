"""Tests for the project call graph (``repro.analysis.callgraph``).

Each fixture tree under ``tests/reprolint_fixtures/callgraph/`` isolates one
resolution mechanism: import aliasing in its three spellings, method lookup
through ``self`` / bases / inferred locals, registry spec-string
indirection, and call cycles (where reachability must terminate).
"""

from __future__ import annotations

import os

from repro.analysis.callgraph import CallGraph, get_callgraph
from repro.analysis.index import ModuleIndex

FIXTURES = os.path.join(os.path.dirname(__file__), "reprolint_fixtures", "callgraph")


def graph_for(case: str) -> CallGraph:
    index = ModuleIndex.from_paths([os.path.join(FIXTURES, case)])
    return get_callgraph(index)


def key_of(graph: CallGraph, filename: str, qualname: str) -> str:
    matches = [
        info.key
        for info in graph.functions.values()
        if info.qualname == qualname and info.module.path.endswith(filename)
    ]
    assert len(matches) == 1, (qualname, matches)
    return matches[0]


class TestImportAliasing:
    def test_all_three_import_spellings_resolve_to_the_same_helper(self):
        # import pkg.util as pu / from pkg import util / from pkg.util import helper as h
        graph = graph_for("aliasing")
        helper = key_of(graph, "util.py", "helper")
        for caller in ("go", "go2", "go3"):
            assert helper in graph.edges[key_of(graph, "main.py", caller)], caller

    def test_unreferenced_function_gets_no_edges(self):
        graph = graph_for("aliasing")
        unused = key_of(graph, "util.py", "unused")
        assert all(unused not in targets for targets in graph.edges.values())


class TestMethodResolution:
    def test_self_calls_resolve_through_the_base_class(self):
        graph = graph_for("methods")
        run = graph.edges[key_of(graph, "derived.py", "Derived.run")]
        assert key_of(graph, "base.py", "Base.step") in run
        assert key_of(graph, "base.py", "Base.twice") in run

    def test_local_construction_infers_the_receiver_class(self):
        graph = graph_for("methods")
        drive = graph.edges[key_of(graph, "derived.py", "drive")]
        assert key_of(graph, "derived.py", "Derived.run") in drive
        assert key_of(graph, "derived.py", "Derived") in drive, "instantiation edge"

    def test_parameter_annotation_infers_the_receiver_class(self):
        graph = graph_for("methods")
        drive = graph.edges[key_of(graph, "derived.py", "drive_annotated")]
        assert key_of(graph, "derived.py", "Derived.run") in drive

    def test_reachability_expands_instantiated_classes_into_methods(self):
        graph = graph_for("methods")
        parents = graph.reachable(
            [key_of(graph, "derived.py", "drive")], expand_instances=True
        )
        assert key_of(graph, "base.py", "Base.step") in parents


class TestRegistryIndirection:
    def test_decorated_factories_are_registered_under_their_spec_names(self):
        graph = graph_for("registry")
        assert graph.registered_factories("attack", "fixture-poi") == [
            key_of(graph, "factories.py", "make_poi")
        ]
        assert graph.registered_factories("attack", "fixture-zone") == [
            key_of(graph, "factories.py", "make_zone")
        ]

    def test_literal_spec_edges_to_exactly_its_factory(self):
        # ``make_attack("fixture-poi:radius=10")`` — params stripped.
        graph = graph_for("registry")
        edges = graph.edges[key_of(graph, "caller.py", "build_one")]
        assert key_of(graph, "factories.py", "make_poi") in edges
        assert key_of(graph, "factories.py", "make_zone") not in edges

    def test_pipeline_spec_edges_to_every_stage(self):
        # ``make_attack("fixture-poi|fixture-zone")`` — the | chain splits.
        graph = graph_for("registry")
        edges = graph.edges[key_of(graph, "caller.py", "build_pipeline")]
        assert key_of(graph, "factories.py", "make_poi") in edges
        assert key_of(graph, "factories.py", "make_zone") in edges

    def test_dynamic_spec_edges_to_all_factories_of_the_kind(self):
        # ``ATTACKS.create_parsed(spec)`` with a non-literal spec.
        graph = graph_for("registry")
        edges = graph.edges[key_of(graph, "caller.py", "build_dynamic")]
        assert key_of(graph, "factories.py", "make_poi") in edges
        assert key_of(graph, "factories.py", "make_zone") in edges


class TestCycles:
    def test_reachability_terminates_on_mutual_recursion(self):
        graph = graph_for("cycles")
        alpha = key_of(graph, "ring.py", "alpha")
        beta = key_of(graph, "ring.py", "beta")
        parents = graph.reachable([alpha])
        assert beta in parents
        assert graph.path_to(parents, beta) == [alpha, beta]
