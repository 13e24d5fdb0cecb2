"""spectral_radius against numpy.linalg.eigvals on drawn non-negative matrices.

The draws have cyclic, periodic (every cycle length a multiple of p > 1),
reducible and acyclic edge structure, with stored zeros. Weights come from a
dozen exact values, so two components of a reducible matrix often share
their radius: their root is then defective on the whole matrix. A structure without a cycle must give exactly 0.

Tolerance: power iteration stops at an eigenpair residual of 1e-10 relative,
so an irreducible draw must agree to 1e-8 relative. On a defective root
eigvals itself is off by about sqrt(eps) times the coupling, so a reducible
draw, which joins at most two cyclic components, must agree to 1e-6.
"""

import numpy as np
import pytest
from scipy import sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.operators import spectral_radius  # noqa: E402

WEIGHT = st.sampled_from([1.0, 0.5, 2.0, 0.1, 0.37, 1.3, 2.718281828, 3.7, 9.9, 0.731, 5.0, 1.0 / 3.0])


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
