"""Directed graph windows: admissibility, canonical operators, and degree kernels."""

import copy

import numpy as np
import pytest

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


def test_build_operators_two_vertex_oracle():
    ops = build_operators(DirectedGraphWindow([0, 1], [(0, 1)], 0))
    assert np.array_equal(ops.adjacency, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(ops.lowering, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert max_norm(ops.momentum - np.array([[0.0, 1j], [-1j, 0.0]])) == 0.0
    assert max_norm(ops.conjugate - np.array([[0.0, 0.5j], [-0.5j, 0.0]])) == 0.0
    assert max_norm(ops.momentum - ops.momentum.conj().T) == 0.0


def test_build_operators_conjugate_is_the_symmetrized_graded_momentum():
    for window in (line_window(200, 3), grid2d_window(5, 7, 1), grid2d_window(24, 24, 2)):
        ops = build_operators(window)
        products = (ops.grading @ ops.momentum + ops.momentum @ ops.grading) / 2.0
        assert np.array_equal(ops.conjugate, products)


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


def _dense_interior_residuals(ops):
    """The four-product route: both commutators in full, then the interior rows."""
    h, k, a = ops.adjacency, ops.momentum, ops.conjugate
    comm_kh = k @ h - h @ k
    ident = 1j * (h @ a - a @ h) - k @ k
    rows = ops.interior_rows
    return (float(np.max(np.linalg.norm(comm_kh[rows, :], axis=1))),
            float(np.max(np.linalg.norm(ident[rows, :], axis=1))))


def test_interior_residuals_match_dense_products_exactly():
    windows = [line_window(12, margin) for margin in range(4)]
    windows += [grid2d_window(8, 8, 2), grid2d_window(24, 24, 2), grid2d_window(6, 7, 0)]
    for window in windows:
        ops = build_operators(window)
        res = interior_residuals(ops)
        oracle = _dense_interior_residuals(ops)
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


def _complex_degree_route(ops, flow_times=(0.5, 1.0, 2.0)):
    """The complex route: the degree by two solves, eigvalsh of it and of K,
    and the flow probe through a complex eigh of H."""
    h, k = ops.adjacency, ops.momentum
    eye = np.eye(h.shape[0])
    x = np.linalg.solve(h + 1j * eye, k @ k)
    degree = np.linalg.solve((h - 1j * eye).T, x.T).T
    degree = (degree + degree.conj().T) / 2.0
    spectrum = np.linalg.eigvalsh(degree)
    kernel_degree = int(np.count_nonzero(_kernel_mask(spectrum, 1e-8)))
    kernel_momentum = int(np.count_nonzero(_kernel_mask(np.linalg.eigvalsh(k), 1e-8)))
    probe = np.zeros(h.shape[0], dtype=complex)
    probe[ops.center_row] = 1.0
    eigvals, eigvecs = np.linalg.eigh(h)
    flow = {}
    for s in flow_times:
        inward = eigvecs @ (np.exp(-1j * s * eigvals) * (eigvecs.conj().T @ probe))
        outward = eigvecs @ (np.exp(1j * s * eigvals) * (eigvecs.conj().T @ (degree @ inward)))
        flow[s] = float(np.linalg.norm(outward - degree @ probe))
    return spectrum, kernel_degree, kernel_momentum, flow


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
        spectrum, kernel_degree, kernel_momentum, flow = _complex_degree_route(ops)
        assert rep.kernel_dim_degree == kernel_degree
        assert rep.kernel_dim_momentum == kernel_momentum
        scale = float(np.max(np.abs(spectrum), initial=0.0))
        assert rep.degree_eigenvalues.shape == spectrum.shape
        assert np.max(np.abs(rep.degree_eigenvalues - spectrum), initial=0.0) <= 1e-12 * scale
        assert abs(rep.psd_min_eigenvalue - float(spectrum.min())) <= 1e-12 * scale
        assert rep.flow_residuals.keys() == flow.keys()
        for s, value in flow.items():
            assert abs(rep.flow_residuals[s] - value) <= 1e-12


def test_graph_degree_rejects_operators_outside_the_real_route():
    ops = build_operators(line_window(6, 1))
    for field, perturb in (("adjacency", 1e-3j), ("momentum", 1e-3)):
        bad = copy.deepcopy(ops)
        getattr(bad, field)[0, 1] += perturb
        with pytest.raises(StructureError):
            graph_degree(bad)
    # an entry between two even positions cannot come from an admissible edge
    bad = copy.deepcopy(ops)
    bad.momentum[0, 2], bad.momentum[2, 0] = 1j, -1j
    with pytest.raises(StructureError):
        graph_degree(bad)


def test_empty_edge_set_gives_zero_operators():
    w = DirectedGraphWindow([0, 1, 2], [], 0)
    ops = build_operators(w)
    assert max_norm(ops.adjacency) == 0.0
    assert max_norm(ops.conjugate) == 0.0
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
