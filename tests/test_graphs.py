"""Directed graph windows: admissibility, canonical operators, and degree kernels."""

import copy
import dataclasses
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commix import graphs, operators
from commix import (
    AdmissibilityError,
    DirectedGraphWindow,
    SchemaError,
    StructureError,
    alternating_cycle4,
    build_operators,
    check_admissible,
    format_graph_window,
    graph_degree,
    grid2d_window,
    interior_residuals,
    kernel_split,
    line_window,
    max_norm,
    parse_graph_window,
)
from commix.operators import _kernel_mask


def test_window_validation():
    with pytest.raises(ValueError):
        DirectedGraphWindow([0, 1], [(0, 0)], 0)
    with pytest.raises(ValueError):
        DirectedGraphWindow([0, 1], [(0, 2)], 0)
    with pytest.raises(ValueError):
        DirectedGraphWindow([0, 1], [(0, 1), (0, 1)], 0)
    with pytest.raises(ValueError):
        DirectedGraphWindow([0, 1, 2], [(0, 1), (1, 0)], 0)
    with pytest.raises(ValueError):
        DirectedGraphWindow([0, 1], [(0, 1)], -1)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "loop edge at vertex 2"),
    ([(0, 1), (1, 5)], r"edge \(1, 5\) references an unknown vertex"),
    ([(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
    ([(0, 1), (1, 2), (2, 1)], r"edge \(2, 1\) conflicts with its reverse orientation"),
    # the first offending edge in input order is named, whatever follows it
    ([(0, 1), (1, 0), (2, 2), (0, 9)], r"edge \(1, 0\) conflicts with its reverse orientation"),
    ([(3, 7), (0, 1), (0, 1), (2, 2)], r"edge \(3, 7\) references an unknown vertex"),
    ([(7, 7), (3, 7)], "loop edge at vertex 7"),  # a loop at an unknown vertex is a loop
    ([(0, 1), (2, 3), (1, 2), (3, 2), (0, 1)], r"edge \(3, 2\) conflicts with its reverse"),
])
def test_window_edge_messages_name_the_first_offending_edge(edges, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        DirectedGraphWindow([0, 1, 2, 3], edges, 0)


def _per_edge_window(vertices, edges, margin):
    """The per-edge route: sets of seen edges and neighbours, then the
    boundary and the interior by breadth-first search from the boundary; the
    distances are listed by row, None where no boundary vertex reaches."""
    verts = sorted(set(vertices))
    seen, adj = [], {v: set() for v in verts}
    for x, y in edges:
        if x == y:
            raise ValueError(f"loop edge at vertex {x}")
        if x not in adj or y not in adj:
            raise ValueError(f"edge ({x}, {y}) references an unknown vertex")
        if (x, y) in seen:
            raise ValueError(f"duplicate edge ({x}, {y})")
        if (y, x) in seen:
            raise ValueError(f"edge ({x}, {y}) conflicts with its reverse orientation")
        seen.append((x, y))
        adj[x].add(y)
        adj[y].add(x)
    top = max(len(adj[v]) for v in verts)
    boundary = [v for v in verts if len(adj[v]) < top]
    dist, queue = {v: 0 for v in boundary}, list(boundary)
    for v in queue:
        for w in sorted(adj[v]):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    interior = [v for v in verts if v not in dist or dist[v] >= margin]
    return verts, sorted(seen), adj, boundary, [dist.get(v) for v in verts], interior


@settings(max_examples=200)
# a line and a 4-cycle: no boundary vertex reaches the cycle, which is interior
@example(vertices=[*range(10), 20, 21, 22, 23],
         edges=[*((k, k + 1) for k in range(9)), (20, 21), (21, 22), (20, 23), (23, 22)],
         margin=2)
@given(vertices=st.lists(st.integers(-4, 8), min_size=1, max_size=8),
       edges=st.lists(st.tuples(st.integers(-5, 9), st.integers(-5, 9)), max_size=12),
       margin=st.integers(0, 3))
def test_window_matches_the_per_edge_route(vertices, edges, margin):
    try:
        want = _per_edge_window(vertices, edges, margin)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            DirectedGraphWindow(vertices, edges, margin)
        assert str(info.value) == str(exc)
        return
    window = DirectedGraphWindow(vertices, edges, margin)
    adj = {v: set() for v in window.vertices}
    for x, y in window.edges:
        adj[x].add(y)
        adj[y].add(x)
    got = (window.vertices, window.edges, adj, window.boundary, window._boundary_distance,
           window.interior)
    assert got == want
    for value in (*window.vertices, *window.boundary, *window.interior, *sum(window.edges, ())):
        assert type(value) is int
    assert all(type(edge) is tuple for edge in window.edges)
    # check_admissible and build_operators read the stored endpoint rows
    # instead of searching the vertex list for each edge
    rows = np.searchsorted(window.vertices, np.array(window.edges, dtype=int).reshape(-1, 2))
    assert window.edge_rows.dtype == rows.dtype and np.array_equal(window.edge_rows, rows)
    assert not window.edge_rows.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1.7), (1, 2)], 1),
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1), (1, 2)], margin=1.9),
    lambda: DirectedGraphWindow([0, 1.5, 2], [(0, 2)], 0),
    lambda: DirectedGraphWindow([0, float("nan")], [], 0),
    lambda: DirectedGraphWindow(np.array([0.0, 1.0, 2.5]), np.array([[0.0, 1.0]]), 0),
    lambda: DirectedGraphWindow([0, 1], [(0, float("inf"))], 0),
    lambda: line_window(5.9, 1),
    lambda: line_window(5, 1.5),
    lambda: grid2d_window(3.9, 2, 0),
    lambda: grid2d_window(3, 2.5, 0),
    lambda: grid2d_window(3, 2, 0.5),
    lambda: DirectedGraphWindow(["0", "1", "2"], [("0", "1"), ("1", "2")], "1"),
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1), (1, 2)], b"1"),
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1 + 0j), (1, 2)], 1),
    lambda: line_window("5", 1),
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1), (1, 2)], margin=True),
    lambda: DirectedGraphWindow([0, 1], np.array([[False, True]]), 0),
    lambda: DirectedGraphWindow([0, True, 2], [(0, 2)], 0),
    lambda: DirectedGraphWindow([0, 1, 2], [(0, 1), (True, 2)], 0),
], ids=["edge", "margin", "vertex", "nan-vertex", "array", "inf-edge", "line-length",
        "line-margin", "grid-nx", "grid-ny", "grid-margin", "text-labels", "bytes-margin",
        "complex-edge", "text-length", "bool-margin", "bool-edges", "bool-in-vertex-list",
        "bool-in-edge-list"])
def test_window_constructors_refuse_non_integral_input(build):
    # refused, not truncated: 1.7 used to become 1, and 5.9 used to become 5;
    # text and complex numbers are refused, not converted: "1" used to become 1;
    # booleans are refused, not counted: margin=True used to be margin 1, and a
    # True among integers in a list used to be vertex 1
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_window_constructors_accept_integral_values_of_any_numeric_type():
    w = DirectedGraphWindow([0.0, np.int64(1), 2], np.array([[0.0, 1.0], [1.0, 2.0]]), np.int32(1))
    assert (w.vertices, w.edges, w.margin) == ([0, 1, 2], [(0, 1), (1, 2)], 1)
    assert line_window(5.0, 1.0).vertices == line_window(5, 1).vertices
    assert grid2d_window(np.int64(3), 4.0, 0).edges == grid2d_window(3, 4, 0).edges
    # an edge is a pair: a third entry is refused, not dropped
    with pytest.raises(ValueError, match="pairs"):
        DirectedGraphWindow([0, 1, 2], [(0, 1, 2)], 0)
    with pytest.raises(ValueError, match="2\\^63"):
        DirectedGraphWindow([0, 2 ** 70], [], 0)


def test_line_window_layout():
    w = line_window(8, 2)
    assert w.vertices == list(range(8))
    assert w.edges == [(i, i + 1) for i in range(7)]
    assert w.boundary == [0, 7]
    assert w.interior == [2, 3, 4, 5]


def test_a_component_no_boundary_vertex_reaches_is_interior():
    # the line 0..9 has the boundary {0, 9}; the admissible 4-cycle 20..23 has
    # no boundary vertex, so it is interior at any margin, and the centre is
    # picked among the line's rows, the deepest first
    edges = [*((k, k + 1) for k in range(9)), (20, 21), (21, 22), (20, 23), (23, 22)]
    w = DirectedGraphWindow([*range(10), 20, 21, 22, 23], edges, 2)
    assert w.interior == [2, 3, 4, 5, 6, 7, 20, 21, 22, 23]
    ops = build_operators(w)
    assert ops.interior_rows.tolist() == [2, 3, 4, 5, 6, 7, 10, 11, 12, 13]
    assert ops.center_row == 4


def test_grid_window_layout():
    w = grid2d_window(3, 4, 1)
    assert len(w.vertices) == 12
    # row-major ids: the single interior band holds the middle of the grid
    assert (1 * 4 + 1) in w.interior and (1 * 4 + 2) in w.interior
    assert 0 in w.boundary


def test_admissibility_verdicts():
    assert check_admissible(line_window(24, 2)).admissible
    assert check_admissible(grid2d_window(6, 6, 1)).admissible
    assert check_admissible(DirectedGraphWindow([0, 1], [(0, 1)], 0)).admissible
    # no edges means no boundary and nothing to test
    assert check_admissible(DirectedGraphWindow([0, 1, 2], [], 0)).admissible


def test_cycle4_fails_pair_counts():
    rep = check_admissible(alternating_cycle4())
    assert rep.path_balance_ok
    assert not rep.pair_counts_ok
    assert not rep.admissible
    assert rep.witness_pair == (0, 2)
    assert rep.witness_counts == (2, 0)


def test_check_admissible_leaves_window_unchanged():
    # the triangle 0 < 1 < 2 with the chord 0 < 2 has no grading: a witness cycle is built
    for window in (DirectedGraphWindow([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 0), alternating_cycle4()):
        before = copy.deepcopy(window.__dict__)
        rep = check_admissible(window)
        assert not rep.admissible
        # edge_rows is an array, which dict equality cannot compare
        after = dict(window.__dict__)
        assert np.array_equal(after.pop("edge_rows"), before.pop("edge_rows"))
        assert after == before


def test_orientation_reversal_preserves_admissibility():
    for window in (line_window(10, 1), grid2d_window(4, 5, 1), alternating_cycle4()):
        flipped = DirectedGraphWindow(
            window.vertices, [(b, a) for a, b in window.edges], margin=window.margin
        )
        assert set(flipped.edges) == {(b, a) for a, b in window.edges}
        assert check_admissible(flipped).admissible == check_admissible(window).admissible


def test_grading_constant_per_component():
    # two disjoint segments: the position labels must step by one along every
    # edge, with a free offset per component
    w = DirectedGraphWindow([0, 1, 2, 10, 11], [(0, 1), (1, 2), (10, 11)], 0)
    rep = check_admissible(w)
    assert rep.admissible
    pos = rep.position
    for a, b in w.edges:
        assert pos[b] == pos[a] + 1


def _loop_admissibility(window):
    """The per-pair route: a grading breadth-first from per-vertex forward sets,
    with the forward and backward edges of the witness cycle counted one by
    one, then shared forward and backward neighbor counts for each pair of
    full-degree vertices within two steps, smallest pair first."""
    forward = {v: set() for v in window.vertices}
    backward = {v: set() for v in window.vertices}
    for x, y in window.edges:
        forward[x].add(y)
        backward[y].add(x)
    neighbors = {v: forward[v] | backward[v] for v in window.vertices}
    position, parent, witness_cycle, witness_balance = {}, {}, None, None
    for root in window.vertices:
        if root in position:
            continue
        position[root], parent[root] = 0, None
        queue = [root]
        while queue and witness_cycle is None:
            v = queue.pop(0)
            for w in sorted(neighbors[v]):
                step = 1 if w in forward[v] else -1
                if w not in position:
                    position[w], parent[w] = position[v] + step, v
                    queue.append(w)
                elif position[w] != position[v] + step:
                    up, down, node = [], [], v
                    while node is not None:
                        up.append(node)
                        node = parent[node]
                    node = w
                    while node is not None:
                        down.append(node)
                        node = parent[node]
                    witness_cycle = up[::-1] + down
                    walk = list(zip(witness_cycle, witness_cycle[1:]))
                    n_fwd = sum(b in forward[a] for a, b in walk)
                    witness_balance = (n_fwd, len(walk) - n_fwd)
                    break
        if witness_cycle is not None:
            break
    scope = [v for v in window.vertices if v not in set(window.boundary)]
    for x in scope:
        near = set()
        for u in neighbors[x]:
            near |= {u, *neighbors[u]}
        for y in sorted(near):
            if y <= x or y not in scope:
                continue
            counts = (len(forward[x] & forward[y]), len(backward[x] & backward[y]))
            if counts[0] != counts[1]:
                return witness_cycle, witness_balance, position, (x, y), counts
    return witness_cycle, witness_balance, position, None, None


def _oriented_graph(rng):
    """Up to nine labels out of -3..20, so rows and labels differ, and each
    pair joined with a per-graph probability in one orientation or the other."""
    vertices = sorted(rng.sample(range(-3, 21), rng.randint(1, 9)))
    density = rng.random()
    edges = [rng.choice(((x, y), (y, x))) for i, x in enumerate(vertices)
             for y in vertices[i + 1:] if rng.random() < density]
    return DirectedGraphWindow(vertices, edges, rng.randrange(3))


def _oriented_grid(rng):
    """An up to 6-by-6 grid, labels shifted by -5, each edge dropped with a
    per-graph probability of 0 or 0.1 and reversed with a per-graph
    probability below 1: full-degree vertices inside, and pair counts that
    hold at no reversal and fail in many ways at a few."""
    full = grid2d_window(rng.randint(2, 6), rng.randint(2, 6), 0)
    keep, flip = rng.choice((1.0, 0.9)), rng.choice((0.0, rng.random() / 4, rng.random()))
    edges = [(y - 5, x - 5) if rng.random() < flip else (x - 5, y - 5)
             for x, y in full.edges if rng.random() < keep]
    return DirectedGraphWindow([v - 5 for v in full.vertices], edges, rng.randrange(3))


@settings(max_examples=300)
@example(window=alternating_cycle4())
@example(window=line_window(9, 2))
@example(window=grid2d_window(5, 4, 1))
@given(window=st.one_of(st.randoms(use_true_random=True).map(_oriented_graph),
                        st.randoms(use_true_random=True).map(_oriented_grid)))
def test_check_admissible_matches_the_per_pair_loop(window):
    rep = check_admissible(window)
    witness_cycle, witness_balance, position, witness_pair, witness_counts = _loop_admissibility(window)
    assert rep.path_balance_ok == (witness_cycle is None)
    assert rep.witness_cycle == witness_cycle
    assert rep.witness_balance == witness_balance
    assert rep.position == (position if witness_cycle is None else None)
    assert rep.pair_counts_ok == (witness_pair is None)
    assert rep.witness_pair == witness_pair
    assert rep.witness_counts == witness_counts


def _dense_complex_operators(window):
    """The dense complex route: H, L, K = i(L* - L), Phi and A = (Phi K + K Phi)/2
    as n-by-n complex matrices, entry by entry from the edge list."""
    report = check_admissible(window)
    index = {v: i for i, v in enumerate(window.vertices)}
    dim = len(index)
    adjacency = np.zeros((dim, dim), dtype=complex)
    lowering = np.zeros((dim, dim), dtype=complex)
    for x, y in window.edges:
        i, j = index[x], index[y]
        adjacency[i, j] = adjacency[j, i] = 1.0
        lowering[j, i] = 1.0
    momentum = 1j * (lowering.conj().T - lowering)
    grading = np.diag([float(report.position[v]) for v in window.vertices]).astype(complex)
    return types.SimpleNamespace(
        adjacency=adjacency, lowering=lowering, momentum=momentum, grading=grading,
        conjugate=(grading @ momentum + momentum @ grading) / 2.0,
        interior_rows=np.array([index[v] for v in window.interior], dtype=int),
        center_row=build_operators(window, report).center_row,
    )


def _dense_real_operators(ops):
    """H, S and T as dense real matrices, entry by entry from the edge rows:
    H = 1 and S = +-1 on both orientations, T = S (Phi_x + Phi_y)/2."""
    dim = ops.position.size
    h, s, t = np.zeros((dim, dim)), np.zeros((dim, dim)), np.zeros((dim, dim))
    for x, y in ops.edge_rows.tolist():
        h[x, y] = h[y, x] = 1.0
        s[x, y], s[y, x] = 1.0, -1.0
        t[x, y] = (ops.position[x] + ops.position[y]) / 2.0
        t[y, x] = -t[x, y]
    return types.SimpleNamespace(adjacency=h, skew_momentum=s, skew_conjugate=t)


def test_build_operators_two_vertex_oracle():
    window = DirectedGraphWindow([0, 1], [(0, 1)], 0)
    ops, dense = build_operators(window), _dense_complex_operators(window)
    real = _dense_real_operators(ops)
    momentum, conjugate = 1j * real.skew_momentum, 1j * real.skew_conjugate
    assert ops.edge_rows.tolist() == [[0, 1]]
    assert np.array_equal(real.adjacency, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(dense.lowering, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(real.skew_momentum, (dense.lowering.T - dense.lowering).real)
    assert max_norm(momentum - np.array([[0.0, 1j], [-1j, 0.0]])) == 0.0
    assert max_norm(conjugate - np.array([[0.0, 0.5j], [-0.5j, 0.0]])) == 0.0
    assert max_norm(momentum - momentum.conj().T) == 0.0


def test_build_operators_conjugate_is_the_symmetrized_graded_momentum():
    for window in (line_window(200, 3), grid2d_window(5, 7, 1), grid2d_window(24, 24, 2)):
        ops = build_operators(window)
        real = _dense_real_operators(ops)
        grading, s = np.diag(ops.position), real.skew_momentum
        products = (grading @ s + s @ grading) / 2.0
        assert np.array_equal(real.skew_conjugate, products)
        # the same operators as the dense complex route, entry for entry
        dense = _dense_complex_operators(window)
        assert np.array_equal(real.adjacency, dense.adjacency)
        assert np.array_equal(np.diag(ops.position), dense.grading)
        assert np.array_equal(1j * s, dense.momentum)
        assert np.array_equal(1j * real.skew_conjugate, dense.conjugate)


def test_build_operators_hold_the_window_edge_rows():
    windows = (line_window(12, 2), grid2d_window(5, 7, 1), DirectedGraphWindow([0, 1, 2], [], 0),
               DirectedGraphWindow([0, 1, 2, 10, 11], [(0, 1), (1, 2), (10, 11)], 0))
    for window in windows:
        ops = build_operators(window)
        # no matrix is kept: H, S and T follow from the edge rows and the grading
        assert [f.name for f in dataclasses.fields(ops)] == [
            "edge_rows", "position", "interior_rows", "center_row"]
        assert ops.edge_rows is window.edge_rows
        assert ops.position.shape == (len(window.vertices),) and ops.position.dtype == np.float64
        tails, heads = ops.edge_rows.T
        assert np.all(ops.position[heads] - ops.position[tails] == 1.0)


def test_build_operators_rejects_cycle4():
    with pytest.raises(AdmissibilityError) as info:
        build_operators(alternating_cycle4())
    assert info.value.report.witness_pair == (0, 2)
    # a report computed beforehand is reused, and still rejects with it attached
    window = alternating_cycle4()
    report = check_admissible(window)
    with pytest.raises(AdmissibilityError) as info:
        build_operators(window, report)
    assert info.value.report is report


def test_interior_identities_exact_once_margin_clears():
    for margin in (1, 2, 3):
        ops = build_operators(line_window(12, margin))
        res = interior_residuals(ops)
        assert res.momentum_commutator == 0.0
        assert res.degree_identity == 0.0
    ops0 = build_operators(line_window(12, 0))
    res0 = interior_residuals(ops0)
    assert res0.momentum_commutator > 1.0  # seam rows included at margin 0
    ops_grid = build_operators(grid2d_window(8, 8, 2))
    res_grid = interior_residuals(ops_grid)
    assert res_grid.momentum_commutator == 0.0
    assert res_grid.degree_identity == 0.0


def _dense_interior_residuals(dense):
    """The four-product route: both commutators in full, then the interior rows."""
    h, k, a = dense.adjacency, dense.momentum, dense.conjugate
    comm_kh = k @ h - h @ k
    ident = 1j * (h @ a - a @ h) - k @ k
    rows = dense.interior_rows
    return (float(np.max(np.linalg.norm(comm_kh[rows, :], axis=1))),
            float(np.max(np.linalg.norm(ident[rows, :], axis=1))))


def test_interior_residuals_match_dense_products_exactly():
    windows = [line_window(12, margin) for margin in range(4)]
    windows += [grid2d_window(8, 8, 2), grid2d_window(24, 24, 2), grid2d_window(6, 7, 0)]
    for window in windows:
        ops = build_operators(window)
        res = interior_residuals(ops)
        oracle = _dense_interior_residuals(_dense_complex_operators(window))
        assert (res.momentum_commutator, res.degree_identity) == oracle
    # the margin-0 grid keeps its seam rows, so the comparison is not 0 == 0
    assert min(oracle) > 0.0


def test_interior_residuals_need_interior():
    with pytest.raises(ValueError):
        interior_residuals(build_operators(line_window(8, 4)))


def test_line_kernel_agreement_small_sizes():
    for size in (8, 9, 12, 17):
        window = line_window(size, 1)
        rep = graph_degree(build_operators(window))
        # the momentum of an even path has trivial kernel, odd path rank one
        assert rep.kernel_dim == (size % 2), f"size {size}"
        _assert_degree_matches_the_complex_route(rep, _dense_complex_operators(window))


def test_line_200_flow_invariance():
    ops = build_operators(line_window(200, 3))
    rep = graph_degree(ops)
    assert rep.kernel_dim == 0
    assert rep.probe_row == 99
    assert max(rep.flow_residuals.values()) <= 1e-10


def test_grid_kernel_and_flow_trend():
    worst = {}
    for side in (12, 18, 24, 36):
        rep = graph_degree(build_operators(grid2d_window(side, side, 2)))
        # lam_x + lam_y vanishes on the side anti-diagonal modes j_x + j_y = side + 1
        assert rep.kernel_dim == side
        worst[side] = max(rep.flow_residuals.values())
    # deviation from flow invariance is a boundary effect and must shrink
    # as the window grows
    assert worst[12] > worst[18] > worst[24] > worst[36]
    assert worst[24] <= 0.2


def test_grid48_kernel_and_flow():
    rep = graph_degree(build_operators(grid2d_window(48, 48, 2)))
    assert rep.kernel_dim == 48
    assert rep.probe_row == 23 * 48 + 23
    # below the grid-36 value (4.1e-3): the boundary effect keeps shrinking
    assert max(rep.flow_residuals.values()) <= 1e-3


def test_grid24_kernel_dimension():
    rep = graph_degree(build_operators(grid2d_window(24, 24, 2)))
    assert rep.kernel_dim == 24
    assert rep.probe_row == 11 * 24 + 11


def _complex_degree_route(dense, flow_times=(0.5, 1.0, 2.0)):
    """The complex route: the degree by two solves, eigvalsh of it and of K,
    its diagonal entry at the probe, and the flow probe through a complex
    eigh of H."""
    h, k = dense.adjacency, dense.momentum
    eye = np.eye(h.shape[0])
    x = np.linalg.solve(h + 1j * eye, k @ k)
    degree = np.linalg.solve((h - 1j * eye).T, x.T).T
    degree = (degree + degree.conj().T) / 2.0
    spectrum = np.linalg.eigvalsh(degree)
    kernel_degree = int(np.count_nonzero(_kernel_mask(spectrum, 1e-8)))
    kernel_momentum = int(np.count_nonzero(_kernel_mask(np.linalg.eigvalsh(k), 1e-8)))
    probe = np.zeros(h.shape[0], dtype=complex)
    probe[dense.center_row] = 1.0
    eigvals, eigvecs = np.linalg.eigh(h)
    flow = {}
    for s in flow_times:
        inward = eigvecs @ (np.exp(-1j * s * eigvals) * (eigvecs.conj().T @ probe))
        outward = eigvecs @ (np.exp(1j * s * eigvals) * (eigvecs.conj().T @ (degree @ inward)))
        flow[s] = float(np.linalg.norm(outward - degree @ probe))
    gram = float(degree[dense.center_row, dense.center_row].real)
    return spectrum, kernel_degree, kernel_momentum, flow, gram


def _assert_degree_matches_the_complex_route(rep, dense):
    spectrum, kernel_degree, kernel_momentum, flow, gram = _complex_degree_route(dense)
    # q* B q = |S (H-i)^{-1} e_p|^2 is the degree's diagonal entry at the
    # probe; |q| <= 1, so its floor is at most 64 eps |S|^2
    square = np.linalg.norm(dense.momentum, 2) ** 2
    assert abs(rep.probe_gram - gram) <= 1e-12 * max(1.0, square)
    assert rep.probe_gram >= -rep.probe_gram_floor
    assert 0.0 <= rep.probe_gram_floor <= 1.01 * 64.0 * np.finfo(float).eps * square
    # Sylvester's law of inertia: the degree R* K^2 R, R = (H-i)^{-1}, is
    # positive semidefinite with K's kernel, which graph_degree counts on H
    assert kernel_degree == kernel_momentum == rep.kernel_dim
    scale = float(np.max(np.abs(spectrum), initial=0.0))
    assert float(spectrum.min()) >= -64 * np.finfo(float).eps * scale
    assert rep.flow_residuals.keys() == flow.keys()
    for s, value in flow.items():
        assert abs(rep.flow_residuals[s] - value) <= 1e-12


def test_graph_degree_reads_kernels_from_eigenvalues(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel_split(*args, **kwargs)

    monkeypatch.setattr(operators, "kernel_split", counting)
    monkeypatch.setattr(graphs, "kernel_split", counting, raising=False)
    windows = (
        line_window(9, 1),  # five even positions against four odd ones
        line_window(200, 3),
        grid2d_window(9, 9, 2),
        grid2d_window(12, 12, 2),
        grid2d_window(24, 24, 2),
        DirectedGraphWindow([0, 1, 2], [], 0),
        DirectedGraphWindow([0, 1, 2, 10, 11], [(0, 1), (1, 2), (10, 11)], 0),
        DirectedGraphWindow([0, 1, 2], [(0, 1), (0, 2)], 0),  # one even position, two odd
        grid2d_window(7, 5, 2),  # 18 even positions against 17 odd ones
    )
    for window in windows:
        ops = build_operators(window)
        rep = graph_degree(ops)
        assert calls == []
        _assert_degree_matches_the_complex_route(rep, _dense_complex_operators(window))


def _rectangle_minus_corner(nx, ny, cx, cy, margin):
    """grid2d_window(nx, ny, margin) without the cx-by-cy block at (0, 0)."""
    full = grid2d_window(nx, ny, margin)
    kept = [v for v in full.vertices if v // ny >= cx or v % ny >= cy]
    kept_set = set(kept)
    return DirectedGraphWindow(
        kept, [(x, y) for x, y in full.edges if x in kept_set and y in kept_set], margin)


def _column_major_grid(nx, ny, margin):
    """grid2d_window(nx, ny, margin) with vertex (i, j) numbered j * nx + i."""
    full = grid2d_window(nx, ny, margin)
    relabel = {i * ny + j: j * nx + i for i in range(nx) for j in range(ny)}
    return DirectedGraphWindow(
        full.vertices, [(relabel[x], relabel[y]) for x, y in full.edges], margin)


def _line_without_edge(length, cut, margin):
    """line_window(length, margin) without its edge (cut, cut + 1)."""
    return DirectedGraphWindow(
        range(length), [(k, k + 1) for k in range(length - 1) if k != cut], margin)


def _record_decompositions(monkeypatch):
    """Patch eigh, eigvalsh and svd to record (name, shape) of each call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def recording(matrix, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(matrix)))
            return _call(matrix, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_graph_degree_decomposes_only_parity_blocks(monkeypatch):
    # the degree's sign and kernel hold by Sylvester's law of inertia, so
    # nothing but H's eigenpairs is needed; a full rectangle's are closed-form
    calls = _record_decompositions(monkeypatch)
    for window in (grid2d_window(24, 24, 2), line_window(200, 3), grid2d_window(9, 9, 2),
                   grid2d_window(24, 25, 2)):
        calls.clear()
        rep = graph_degree(build_operators(window))
        assert calls == []
        if len(window.vertices) == 576:
            assert rep.kernel_dim == 24
    # H and S only join positions of opposite parity: without a corner block
    # it is no lattice, and one SVD of H's even-by-odd block gives the eigenpairs
    calls.clear()
    ops = build_operators(_rectangle_minus_corner(24, 24, 6, 6, 2))
    n_odd = int(np.count_nonzero(ops.position % 2))
    n_even = ops.position.size - n_odd
    graph_degree(ops)
    assert calls == [("svd", (n_even, n_odd))]


def _reflected_end_line(length):
    """line_window(length, 1) with its first edge oriented 1 < 0: still
    admissible and H still the path, so the closed-form eigenpairs apply, but
    S carries a grading sign the uniform line does not."""
    return DirectedGraphWindow(range(length), [(1, 0)] + [(k, k + 1) for k in range(1, length - 1)], 1)


@pytest.mark.parametrize("case", [
    "grid 6x8",  # nx + ny even, n even
    "grid 5x7",  # nx + ny even, n odd: a centre vertex
    "grid 5x6",  # nx + ny odd
    "line 11",  # odd path: a centre vertex
    "line 12",  # even path
    "column-major 7x5",
    "column-major 4x5",
    "reflected end 7",  # a path whose first edge runs against the others
    "reflected end 8",
])
def test_graph_degree_on_lattice_windows_matches_the_complex_route(case):
    kind, size = case.rsplit(" ", 1)
    if kind == "reflected end":
        window = _reflected_end_line(int(size))
    elif kind == "line":
        window = line_window(int(size), 2)
    else:
        nx, ny = map(int, size.split("x"))
        window = (grid2d_window if kind == "grid" else _column_major_grid)(nx, ny, 1)
    ops = build_operators(window)
    if kind == "reflected end":
        assert graphs._lattice_sides(ops.edge_rows, int(size)) == (int(size),)
        assert ops.position[1] % 2 == 1 and ops.position[2] % 2 == 0
    _assert_degree_matches_the_complex_route(graph_degree(ops), _dense_complex_operators(window))


def test_lattice_sides_refuse_a_lattice_with_one_edge_missing_or_added():
    for window, sides in ((grid2d_window(6, 8, 1), (6, 8)), (line_window(12, 1), (12,))):
        rows, n = build_operators(window).edge_rows, len(window.vertices)
        assert graphs._lattice_sides(rows, n) == sides
        # each edge but the first removed in turn; without (0, 1) vertex 0 names no candidate
        for cut in range(1, len(rows)):
            assert graphs._lattice_sides(np.delete(rows, cut, axis=0), n) is None
        assert graphs._lattice_sides(np.concatenate([rows, [[2, n - 1]]]), n) is None


def test_momentum_gram_is_the_sparse_product_bit_for_bit():
    # S^T S x from the half-edges against scipy's CSR product S^T (S x), whose
    # rows sum their stored entries from zero in column order
    from scipy import sparse

    rng = np.random.default_rng(11)
    for window in (line_window(200, 3), grid2d_window(24, 24, 2), grid2d_window(7, 13, 2),
                   _rectangle_minus_corner(12, 12, 4, 4, 1), _reflected_end_line(9)):
        ops = build_operators(window)
        s = sparse.csr_array(_dense_real_operators(ops).skew_momentum)
        x = rng.standard_normal((len(window.vertices), 8))
        assert np.array_equal(graphs._momentum_gram(ops.edge_rows, x), s.T @ (s @ x))


@pytest.mark.parametrize("m", [2, 3, 17, 48, 200])
def test_path_eigenpairs_are_accurate(m):
    # the sine arguments are reduced mod 2 pi; unreduced, they grow like m^2
    # and at m = 48 the residual reads 35 eps and the orthonormality 15 eps
    eps = np.finfo(float).eps
    lam, vecs = graphs._path_eigenpairs(m)
    path = np.eye(m, k=1) + np.eye(m, k=-1)
    assert np.max(np.abs(path @ vecs - vecs * lam)) <= 8 * eps
    assert np.max(np.abs(vecs.T @ vecs - np.eye(m))) <= 16 * eps


@st.composite
def _windows(draw):
    """A window and the lattice sides H must be detected as (None: no lattice)."""
    margin = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["grid", "line", "column-major", "cut-out", "cut line"]))
    if kind == "line":
        length = draw(st.integers(2, 80))
        return line_window(length, margin), (length,)
    if kind == "cut line":
        length = draw(st.integers(3, 80))
        return _line_without_edge(length, draw(st.integers(0, length - 2)), margin), None
    nx, ny = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    if kind == "grid":
        return grid2d_window(nx, ny, margin), (nx, ny)
    if kind == "column-major":
        return _column_major_grid(nx, ny, margin), (ny, nx)
    cx, cy = draw(st.integers(1, nx - 1)), draw(st.integers(1, ny - 1))
    return _rectangle_minus_corner(nx, ny, cx, cy, margin), None


@settings(max_examples=40)
@given(case=_windows())
def test_edge_route_matches_the_dense_complex_route(case):
    window, sides = case
    ops, dense = build_operators(window), _dense_complex_operators(window)
    # only an exact path or row-major grid takes the closed-form eigenpairs
    assert graphs._lattice_sides(ops.edge_rows, len(window.vertices)) == sides
    if ops.interior_rows.size:
        res = interior_residuals(ops)
        assert (res.momentum_commutator, res.degree_identity) == _dense_interior_residuals(dense)
    else:
        with pytest.raises(ValueError):
            interior_residuals(ops)
    _assert_degree_matches_the_complex_route(graph_degree(ops), dense)


def test_graph_operators_refuse_an_edge_that_does_not_step_the_grading_by_one():
    ops = build_operators(line_window(6, 1))
    # gradings that the edge (0, 1) steps by 0, by 2, against its orientation,
    # or by NaN
    for row, value in ((1, 0.0), (1, 2.0), (0, 2.0), (0, np.nan)):
        position = ops.position.copy()
        position[row] = value
        with pytest.raises(StructureError, match="step the grading by one"):
            dataclasses.replace(ops, position=position)
    # an edge joining two even positions, and an edge reversed
    for extra in ([[0, 2]], [[2, 1]]):
        with pytest.raises(StructureError, match="step the grading by one"):
            dataclasses.replace(ops, edge_rows=np.concatenate([ops.edge_rows, extra]))
    # the checked fields cannot be swapped afterwards
    with pytest.raises(dataclasses.FrozenInstanceError):
        ops.position = ops.position + 1.0


def test_empty_edge_set_gives_zero_operators():
    w = DirectedGraphWindow([0, 1, 2], [], 0)
    ops = build_operators(w)
    real = _dense_real_operators(ops)
    assert max_norm(real.adjacency) == 0.0
    assert max_norm(real.skew_conjugate) == 0.0
    assert graph_degree(ops).kernel_dim == 3


def test_graph_file_round_trip():
    w = line_window(8, 2)
    text = format_graph_window(w)
    assert text.splitlines()[0] == "# graph-window v1"
    back = parse_graph_window(text)
    assert back.vertices == w.vertices
    assert back.edges == w.edges
    assert back.margin == w.margin
    sparse = parse_graph_window("# graph-window v1\n# vertices: 3,5,9\n# margin: 0\n\n3 5\n5 9\n")
    assert sparse.vertices == [3, 5, 9]
    assert sparse.edges == [(3, 5), (5, 9)]


def test_graph_file_schema_errors():
    for bad in (
        "# graph-window v1\n# vertices: 0..3\n# margin: 1.5\n0 1\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: 0\n0 1.7\n",
        "# graph-window v1\n# vertices: 0,1.5,3\n# margin: 0\n0 3\n",
        "0 1\n",
        "# graph-window v2\n# vertices: 0..3\n# margin: 0\n0 1\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: 0\n1 1\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: 0\n0 1\n0 1\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: 0\n0 9\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: x\n0 1\n",
        "# graph-window v1\n# vertices: 0..3\n# margin: 0\n0 1\n1 0\n",
    ):
        with pytest.raises(SchemaError):
            parse_graph_window(bad)
