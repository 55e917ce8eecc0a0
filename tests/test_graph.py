import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwell import (
    DirichletProblem,
    GraphValidationError,
    LambdaProblem,
    PotentialField,
    UnknownLabelError,
    WeightedGraph,
    as_domain,
    boundary,
    validate_graph,
)
from graphwell.calculus import as_vertex_function


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])


@st.composite
def connected_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for i in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=i - 1)), i))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=8))
    for i, j in extra:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    triples = [(i, j, float(rng.uniform(0.1, 3.0))) for (i, j) in sorted(edges)]
    mu = rng.uniform(0.1, 3.0, size=n)
    return WeightedGraph(n, triples, measure=mu)


class TestConstruction:
    def test_minimal_graph(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.mu_min == 1.0
        assert validate_graph(g) is None

    def test_edges_stored_canonically(self):
        g = WeightedGraph(3, [(2, 0, 1.5), (1, 2, 0.5)])
        pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        assert pairs == {(0, 2), (1, 2)}

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, [(0, 0, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, [(0, 5, 1.0)])

    def test_non_integer_vertex_ids_rejected(self):
        # int() would truncate 2.7 to 2, 1.9 to 1 and 0.5 to 0 and pose the
        # problem on other vertices than the caller named; each error names
        # the value instead.
        with pytest.raises(GraphValidationError, match="2.7"):
            WeightedGraph(2.7, [(0, 1, 1.0)])
        with pytest.raises(GraphValidationError, match="1.9"):
            WeightedGraph(2, [(0, 1.9, 1.0)])
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(UnknownLabelError, match="0.5"):
            DirichletProblem(g, {0.5}, {0.2, 1.7}, 2.0, 2.0)
        with pytest.raises(UnknownLabelError, match="0.9"):
            boundary(g, [0.9])
        with pytest.raises(UnknownLabelError, match="1.99"):
            g.check_vertex(1.99)
        # numpy integers are integers
        g = WeightedGraph(np.int64(2), [(np.int32(0), np.int64(1), 1.0)])
        assert g.check_vertex(np.int64(1)) == 1
        assert as_domain(g, np.arange(2)) == frozenset({0, 1})

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, [(0, 1, float("nan"))])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, [(0, 1, 1.0)], labels=["a", "a"])

    def test_label_lookup(self):
        g = WeightedGraph(2, [(0, 1, 1.0)], labels=["p", "q"])
        assert g.id_of("q") == 1
        assert g.label_of(0) == "p"
        with pytest.raises(UnknownLabelError):
            g.id_of("r")

    def test_neighbors(self):
        g = WeightedGraph(3, [(0, 1, 2.0), (0, 2, 3.0)])
        ids, weights = g.neighbors(0)
        assert sorted(ids.tolist()) == [1, 2]
        assert sorted(weights.tolist()) == [2.0, 3.0]
        assert g.wdeg[0] == 5.0


class TestValidation:
    def test_nonpositive_weight_names_offender(self):
        with pytest.raises(GraphValidationError, match=r"edge \(p, q\)"):
            WeightedGraph(2, [(0, 1, 0.0)], labels=["p", "q"])

    def test_nonpositive_measure_names_offender(self):
        with pytest.raises(GraphValidationError, match="vertex q"):
            WeightedGraph(2, [(0, 1, 1.0)], measure=np.array([1.0, 0.0]),
                              labels=["p", "q"])

    @pytest.mark.parametrize("edges,measure,offender", [
        ([(0, 1, 0.0), (1, 2, 1.0)], [1.0, 1.0, 1.0], r"edge \(p, q\)"),
        ([(0, 1, 1.0), (1, 2, -1.0)], [1.0, 1.0, 1.0], r"edge \(q, r\)"),
        ([(0, 1, 1.0), (1, 2, 1.0)], [1.0, 0.0, 1.0], "vertex q"),
        ([(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, -1.0], "vertex r"),
    ])
    def test_no_problem_on_a_nonpositive_weight_or_measure(self, edges, measure, offender):
        # The graph is refused before any problem, and so any solve, can see it.
        with pytest.raises(GraphValidationError, match=offender):
            g = WeightedGraph(3, edges, measure=measure, labels=["p", "q", "r"])
            pots = PotentialField([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
            LambdaProblem(g, pots, 1.0, 2.0, 2.0)
            DirichletProblem(g, pots.omega_a, pots.omega_b, 2.0, 2.0)

    def test_disconnected_names_unreachable_vertex(self):
        # The lowest unreachable id is named, whatever order the search visits.
        g = WeightedGraph(5, [(0, 3, 1.0), (3, 1, 1.0)], labels=["p", "q", "r", "s", "t"])
        with pytest.raises(GraphValidationError, match="vertex r is unreachable from p$"):
            validate_graph(g)

    @pytest.mark.parametrize("build,error,fragment", [
        (lambda: WeightedGraph(0, []), GraphValidationError, "vertex_count must be positive"),
        (lambda: WeightedGraph(2, [(0, 1, 1.0)], measure=[1.0]), GraphValidationError,
         "measure must have one value per vertex"),
        (lambda: WeightedGraph(2, [(0, 1, 1.0)], labels=["p"]), GraphValidationError,
         "labels must have one entry per vertex"),
        (lambda: PotentialField([0.0, 1.0], [0.0]), GraphValidationError,
         "must be 1-d arrays of equal length"),
        (lambda: PotentialField([0.0, np.nan], [0.0, 1.0]), GraphValidationError,
         "potential a must be finite"),
        (lambda: PotentialField([1.0, 1.0], [0.0, 1.0]), GraphValidationError,
         "potential a has an empty zero set"),
        (lambda: PotentialField([0.0, 1.0], [1.0, 1.0]), GraphValidationError,
         "potential b has an empty zero set"),
        (lambda: as_vertex_function(path_graph(3), [1.0, 2.0]), ValueError,
         "vertex function must have shape"),
        (lambda: DirichletProblem(path_graph(3), [], [0], 2.0, 2.0), GraphValidationError,
         "both wells must be nonempty"),
    ], ids=["vertex-count", "measure", "labels", "potential-shape", "potential-finite",
            "well-a-empty", "well-b-empty", "vertex-function-shape", "dirichlet-wells"])
    def test_boundary_check_names_its_fault(self, build, error, fragment):
        with pytest.raises(error, match=fragment):
            build()


class TestBoundary:
    def test_boundary_of_interval(self):
        g = path_graph(5)
        assert boundary(g, {1, 2}) == frozenset({0, 3})

    def test_full_and_empty_domains(self):
        g = path_graph(3)
        assert boundary(g, set(range(3))) == frozenset()
        assert boundary(g, set()) == frozenset()

    def test_as_domain_rejects_unknown(self):
        g = path_graph(3)
        with pytest.raises(UnknownLabelError):
            as_domain(g, {5})

    @settings(max_examples=60, deadline=None)
    @given(g=connected_graphs(), data=st.data())
    def test_boundary_disjoint_and_adjacent(self, g, data):
        n = g.vertex_count
        omega = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        bd = boundary(g, omega)
        assert bd.isdisjoint(omega)
        # every boundary vertex touches the domain
        for x in bd:
            ids, _ = g.neighbors(x)
            assert any(int(y) in omega for y in ids)
