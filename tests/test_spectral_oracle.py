"""spectral_radius against numpy.linalg.eigvals on drawn non-negative matrices.

The draws have cyclic, periodic (every cycle length a multiple of p > 1),
reducible and acyclic edge structure, with stored zeros. Weights come from a
dozen exact values, so two components of a reducible matrix often share
their radius: their root is then defective on the whole matrix. A structure without a cycle must give exactly 0.

Further draws hang a strongly connected core on acyclic nodes upstream and
downstream of it, whose weights span 24 decades: the radius is the core's
alone. Relabelling a matrix's nodes must not move its radius.

Tolerance: power iteration stops at an eigenpair residual of 1e-10 relative,
so an irreducible draw must agree to 1e-8 relative. On a defective root
eigvals itself is off by about sqrt(eps) times the coupling, so a reducible
draw, which joins at most two cyclic components, must agree to 1e-6.
"""

from operator import itemgetter

import numpy as np
import pytest
from scipy import sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import table_from_dense  # noqa: E402
from hallsand.operators import OperatorKind, build_operator, spectral_radius  # noqa: E402

WEIGHT = st.sampled_from([1.0, 0.5, 2.0, 0.1, 0.37, 1.3, 2.718281828, 3.7, 9.9, 0.731, 5.0, 1.0 / 3.0])
TAIL_WEIGHT = st.sampled_from([1e-12, 1e-6, 0.01, 0.3, 1.0, 7.0, 1e3, 1e6, 1e12])


def ring(nodes):
    """Edges of one cycle through nodes; a lone node gets a self-loop."""
    return list(zip(nodes, nodes[1:] + nodes[:1]))


def forward_edge(a, b, n):
    """An edge between a and b (mod n) that runs from the lower node to the higher."""
    return tuple(sorted((a % n, b % n)))


@st.composite
def structured(draw):
    kind = draw(st.sampled_from(["cyclic", "periodic", "reducible", "acyclic"]))
    pair = st.tuples(st.integers(0, 6), st.integers(0, 6))
    if kind == "cyclic":
        n = draw(st.integers(1, 7))
        edges = ring(list(range(n))) + [
            (a % n, b % n) for a, b in draw(st.lists(pair, max_size=2 * n))
        ]
    elif kind == "periodic":
        p, m = draw(st.integers(2, 4)), draw(st.integers(1, 2))
        n = p * m
        # node i is in class i % p, and every edge goes one class on
        edges = ring(list(range(n))) + [
            (a % n, b % n) for a, b in draw(st.lists(pair, max_size=2 * n)) if (b - a - 1) % p == 0
        ]
    elif kind == "reducible":
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        n = sum(sizes) + draw(st.integers(0, 2))  # and some nodes on no cycle
        first, second = list(range(sizes[0])), list(range(sizes[0], sum(sizes)))
        # edges only run forward, and one joins the first block to the second
        forward = [forward_edge(a, b, n) for a, b in draw(st.lists(pair, max_size=6))]
        join = (draw(st.sampled_from(first)), draw(st.sampled_from(second)))
        edges = ring(first) + ring(second) + [join] + [(a, b) for a, b in forward if a != b]
    else:
        n = draw(st.integers(1, 7))
        edges = [forward_edge(a, b, n) for a, b in draw(st.lists(pair, max_size=3 * n))]
        edges = [(a, b) for a, b in edges if a != b]
    weights = {edge: draw(WEIGHT) for edge in edges}
    # stored zeros, in any direction: they carry nothing and close no cycle
    for edge in draw(st.lists(pair, max_size=3)):
        weights.setdefault((edge[0] % n, edge[1] % n), 0.0)
    order = draw(st.permutations(range(n)))  # hide the block order
    rows = [order[a] for a, _ in weights]
    cols = [order[b] for _, b in weights]
    matrix = sparse.csr_matrix((list(weights.values()), (rows, cols)), shape=(n, n))
    return kind, matrix


@settings(max_examples=150)
@given(structured())
def test_spectral_radius_matches_eigvals(drawn):
    kind, matrix = drawn
    rho = spectral_radius(matrix)
    if kind == "acyclic":
        assert rho == 0.0
        return
    ref = float(np.abs(np.linalg.eigvals(matrix.toarray())).max())
    tol = 1e-6 if kind == "reducible" else 1e-8
    assert abs(rho - ref) <= tol * max(1.0, ref), (rho, ref)


@st.composite
def hung_core(draw):
    """A strongly connected core fed by acyclic upstream nodes and draining
    into acyclic downstream ones, with the core's eigvals radius."""
    up, size = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    down = draw(st.integers(0 if up else 1, 3))
    n = up + size + down
    core = list(range(up, up + size))
    inner = st.tuples(st.sampled_from(core), st.sampled_from(core))
    edges = ring(core) + draw(st.lists(inner, max_size=2 * size))
    # every other edge runs from a lower node to a higher one, so it closes
    # no cycle, and each tail node has an edge to or from the core
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    tail = [forward_edge(a, b, n) for a, b in draw(st.lists(pair, max_size=2 * n))]
    tail += [(u, draw(st.sampled_from(core))) for u in range(up)]
    tail += [(draw(st.sampled_from(core)), d) for d in range(up + size, n)]
    weights = {edge: draw(WEIGHT) for edge in edges}
    for edge in tail:
        if edge[0] != edge[1]:
            weights.setdefault(edge, draw(TAIL_WEIGHT))
    dense = np.zeros((n, n))
    for (a, b), w in weights.items():
        dense[a, b] = w
    ref = float(np.abs(np.linalg.eigvals(dense[np.ix_(core, core)])).max())
    order = np.array(draw(st.permutations(range(n))))
    relabelled = np.empty_like(dense)
    relabelled[np.ix_(order, order)] = dense
    return sparse.csr_matrix(relabelled), ref


@settings(max_examples=60)
@given(hung_core())
def test_hung_core_radius_is_the_cores(drawn):
    matrix, ref = drawn
    rho = spectral_radius(matrix)
    assert abs(rho - ref) <= 1e-8 * max(1.0, ref), (rho, ref)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_lone_self_loop_far_below_its_row_total(n):
    # node 0's row-share keeps 4e-170 on its self-loop, the only cycle
    dense = np.zeros((n, n))
    dense[0, 0], dense[0, 1] = 1e-170, 0.25
    op = build_operator(table_from_dense(dense), OperatorKind.ROW_SHARE)
    ref = float(np.abs(np.linalg.eigvals(op.matrix.toarray())).max())
    assert ref == op.matrix[0, 0]
    assert op.spectral_radius == pytest.approx(ref, rel=1e-8)


@settings(max_examples=50)
@given(st.one_of(structured().map(itemgetter(1)), hung_core().map(itemgetter(0))), st.data())
def test_relabelling_moves_no_radius(matrix, data):
    order = np.array(data.draw(st.permutations(range(matrix.shape[0]))))
    rho = spectral_radius(matrix)
    assert abs(spectral_radius(matrix[order][:, order]) - rho) <= 1e-8 * max(1.0, rho)
