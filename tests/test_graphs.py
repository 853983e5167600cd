"""Directed graph windows: admissibility, canonical operators, and degree kernels."""

import copy
import dataclasses
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

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


def test_line_window_layout():
    w = line_window(8, 2)
    assert w.vertices == list(range(8))
    assert w.edges == [(i, i + 1) for i in range(7)]
    assert w.boundary == [0, 7]
    assert w.interior == [2, 3, 4, 5]


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
        assert window.__dict__ == before


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
    then shared forward and backward neighbor counts for each pair of
    full-degree vertices within two steps, smallest pair first."""
    forward = {v: set() for v in window.vertices}
    backward = {v: set() for v in window.vertices}
    for x, y in window.edges:
        forward[x].add(y)
        backward[y].add(x)
    position, parent, witness_cycle = {}, {}, None
    for root in window.vertices:
        if root in position:
            continue
        position[root], parent[root] = 0, None
        queue = [root]
        while queue and witness_cycle is None:
            v = queue.pop(0)
            for w in sorted(window.neighbors(v)):
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
                    break
        if witness_cycle is not None:
            break
    scope = [v for v in window.vertices if v not in set(window.boundary)]
    for x in scope:
        near = set()
        for u in window.neighbors(x):
            near |= {u, *window.neighbors(u)}
        for y in sorted(near):
            if y <= x or y not in scope:
                continue
            counts = (len(forward[x] & forward[y]), len(backward[x] & backward[y]))
            if counts[0] != counts[1]:
                return witness_cycle, position, (x, y), counts
    return witness_cycle, position, None, None


def _oriented_graph(rng):
    """Up to nine labels out of -3..20, so rows and labels differ, and each
    pair joined with a per-graph probability in one orientation or the other."""
    vertices = sorted(rng.sample(range(-3, 21), rng.randint(1, 9)))
    density = rng.random()
    edges = [rng.choice(((x, y), (y, x))) for i, x in enumerate(vertices)
             for y in vertices[i + 1:] if rng.random() < density]
    return DirectedGraphWindow(vertices, edges, rng.randrange(3))


@settings(max_examples=200)
@example(window=alternating_cycle4())
@example(window=line_window(9, 2))
@given(window=st.randoms(use_true_random=True).map(_oriented_graph))
def test_check_admissible_matches_the_per_pair_loop(window):
    rep = check_admissible(window)
    witness_cycle, position, witness_pair, witness_counts = _loop_admissibility(window)
    assert rep.path_balance_ok == (witness_cycle is None)
    assert rep.witness_cycle == witness_cycle
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


def test_build_operators_two_vertex_oracle():
    window = DirectedGraphWindow([0, 1], [(0, 1)], 0)
    ops, dense = build_operators(window), _dense_complex_operators(window)
    momentum, conjugate = 1j * ops.skew_momentum.toarray(), 1j * ops.skew_conjugate.toarray()
    assert np.array_equal(ops.adjacency.toarray(), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(dense.lowering, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(ops.skew_momentum.toarray(), (dense.lowering.T - dense.lowering).real)
    assert max_norm(momentum - np.array([[0.0, 1j], [-1j, 0.0]])) == 0.0
    assert max_norm(conjugate - np.array([[0.0, 0.5j], [-0.5j, 0.0]])) == 0.0
    assert max_norm(momentum - momentum.conj().T) == 0.0


def test_build_operators_conjugate_is_the_symmetrized_graded_momentum():
    for window in (line_window(200, 3), grid2d_window(5, 7, 1), grid2d_window(24, 24, 2)):
        ops = build_operators(window)
        grading, s = np.diag(ops.position), ops.skew_momentum.toarray()
        products = (grading @ s + s @ grading) / 2.0
        assert np.array_equal(ops.skew_conjugate.toarray(), products)
        # the same operators as the dense complex route, entry for entry
        dense = _dense_complex_operators(window)
        assert np.array_equal(ops.adjacency.toarray(), dense.adjacency)
        assert np.array_equal(np.diag(ops.position), dense.grading)
        assert np.array_equal(1j * s, dense.momentum)
        assert np.array_equal(1j * ops.skew_conjugate.toarray(), dense.conjugate)


def test_build_operators_store_one_entry_per_edge_orientation():
    windows = (line_window(12, 2), grid2d_window(5, 7, 1), DirectedGraphWindow([0, 1, 2], [], 0),
               DirectedGraphWindow([0, 1, 2, 10, 11], [(0, 1), (1, 2), (10, 11)], 0))
    for window in windows:
        ops = build_operators(window)
        matrices = {f.name: getattr(ops, f.name) for f in dataclasses.fields(ops)
                    if getattr(getattr(ops, f.name), "ndim", 1) == 2}
        assert matrices.keys() == {"adjacency", "skew_momentum", "skew_conjugate"}
        for name, matrix in matrices.items():
            assert sparse.issparse(matrix) and matrix.format == "csr", name
            assert matrix.dtype == np.float64, name
            assert matrix.nnz == 2 * len(window.edges), name
        assert ops.position.shape == (len(window.vertices),)


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
        ops = build_operators(line_window(size, 1))
        rep = graph_degree(ops)
        assert rep.kernel_match, f"size {size}"
        assert rep.kernel_dim_degree == rep.kernel_dim_momentum
        # the momentum of an even path has trivial kernel, odd path rank one
        assert rep.kernel_dim_momentum == (size % 2)
        assert rep.psd_min_eigenvalue >= -1e-10


def test_line_200_flow_invariance():
    ops = build_operators(line_window(200, 3))
    rep = graph_degree(ops)
    assert rep.kernel_match
    assert rep.probe_row == 99
    assert max(rep.flow_residuals.values()) <= 1e-10


def test_grid_kernel_and_flow_trend():
    worst = {}
    for side in (12, 18, 24, 36):
        rep = graph_degree(build_operators(grid2d_window(side, side, 2)))
        assert rep.kernel_match, f"side {side}"
        assert rep.psd_min_eigenvalue >= -1e-10
        worst[side] = max(rep.flow_residuals.values())
    # deviation from flow invariance is a boundary effect and must shrink
    # as the window grows
    assert worst[12] > worst[18] > worst[24] > worst[36]
    assert worst[24] <= 0.2


@pytest.mark.slow
def test_grid48_kernel_and_flow():
    rep = graph_degree(build_operators(grid2d_window(48, 48, 2)))
    assert rep.kernel_match
    assert rep.kernel_dim_degree == rep.kernel_dim_momentum == 48
    assert rep.psd_min_eigenvalue >= -1e-10
    assert rep.probe_row == 23 * 48 + 23
    # below the grid-36 value (4.1e-3): the boundary effect keeps shrinking
    assert max(rep.flow_residuals.values()) <= 1e-3


def test_grid24_kernel_dimension():
    rep = graph_degree(build_operators(grid2d_window(24, 24, 2)))
    assert rep.kernel_dim_degree == 24
    assert rep.kernel_dim_momentum == 24
    assert rep.probe_row == 11 * 24 + 11


def _complex_degree_route(dense, flow_times=(0.5, 1.0, 2.0)):
    """The complex route: the degree by two solves, eigvalsh of it and of K,
    and the flow probe through a complex eigh of H."""
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
    return spectrum, kernel_degree, kernel_momentum, flow


def _assert_degree_matches_the_complex_route(rep, dense):
    spectrum, kernel_degree, kernel_momentum, flow = _complex_degree_route(dense)
    assert rep.kernel_dim_degree == kernel_degree
    assert rep.kernel_dim_momentum == kernel_momentum
    scale = float(np.max(np.abs(spectrum), initial=0.0))
    assert rep.degree_eigenvalues.shape == spectrum.shape
    assert np.max(np.abs(rep.degree_eigenvalues - spectrum), initial=0.0) <= 1e-12 * scale
    assert abs(rep.psd_min_eigenvalue - float(spectrum.min())) <= 1e-12 * scale
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
    )
    for window in windows:
        ops = build_operators(window)
        rep = graph_degree(ops)
        assert calls == []
        _assert_degree_matches_the_complex_route(rep, _dense_complex_operators(window))


_windows = st.one_of(
    st.builds(grid2d_window, st.integers(2, 14), st.integers(2, 14), st.integers(0, 3)),
    st.builds(line_window, st.integers(2, 80), st.integers(0, 3)),
)


@settings(max_examples=40)
@given(window=_windows)
def test_edge_route_matches_the_dense_complex_route(window):
    ops, dense = build_operators(window), _dense_complex_operators(window)
    if ops.interior_rows.size:
        res = interior_residuals(ops)
        assert (res.momentum_commutator, res.degree_identity) == _dense_interior_residuals(dense)
    else:
        with pytest.raises(ValueError):
            interior_residuals(ops)
    _assert_degree_matches_the_complex_route(graph_degree(ops), dense)


def test_graph_degree_rejects_operators_outside_the_real_route():
    ops = build_operators(line_window(6, 1))
    # an imaginary part of H, or a real part of K = iS, makes the field complex
    for field, perturb in (("adjacency", 1e-3j), ("skew_momentum", -1e-3j)):
        matrix = getattr(ops, field).astype(complex)
        matrix[0, 1] += perturb
        with pytest.raises(StructureError):
            graph_degree(dataclasses.replace(ops, **{field: matrix}))
    # an entry between two even positions cannot come from an admissible edge
    same_parity = sparse.csr_array(([1.0, -1.0], ([0, 2], [2, 0])), shape=ops.skew_momentum.shape)
    with pytest.raises(StructureError):
        graph_degree(dataclasses.replace(ops, skew_momentum=ops.skew_momentum + same_parity))


def test_empty_edge_set_gives_zero_operators():
    w = DirectedGraphWindow([0, 1, 2], [], 0)
    ops = build_operators(w)
    assert max_norm(ops.adjacency.toarray()) == 0.0
    assert max_norm(ops.skew_conjugate.toarray()) == 0.0
    rep = graph_degree(ops)
    assert rep.kernel_dim_degree == 3 and rep.kernel_dim_momentum == 3
    assert rep.kernel_match


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
