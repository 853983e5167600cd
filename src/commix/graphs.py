"""Directed-graph windows: admissibility, operator construction, degree.

An orientation x < y on a graph is admissible when (i) every closed walk
balances forward and backward edges, equivalently an integer grading exists,
and (ii) any two distinct vertices share as many forward neighbors as
backward neighbors.  Admissible infinite graphs carry an exactly solvable
commutator structure; finite windows of them inherit it on the interior,
away from the cut, and that is where all identities are asserted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, SchemaError, StructureError
from .operators import _kernel_mask

__all__ = [
    "DirectedGraphWindow",
    "line_window",
    "grid2d_window",
    "alternating_cycle4",
    "AdmissibilityReport",
    "check_admissible",
    "GraphOperators",
    "build_operators",
    "InteriorResiduals",
    "interior_residuals",
    "GraphDegreeReport",
    "graph_degree",
    "parse_graph_window",
    "format_graph_window",
]

GRAPH_FORMAT = "graph-window"
GRAPH_VERSION = 1


class DirectedGraphWindow:
    """Finite window of a directed graph with an interior margin.

    Edges are ordered pairs (x, y) read as x < y; loops, duplicates, and
    doubly oriented pairs are rejected.  Vertices adjacent to the cut cannot
    be recognized directly, so the boundary is inferred as the set of
    vertices of deficient degree (below the window maximum), and the interior
    consists of vertices at graph distance at least ``margin`` from it.  For
    windows of vertex-transitive graphs this matches the usual notion; for a
    regular standalone graph the boundary is empty and everything is interior.
    """

    def __init__(self, vertices, edges, margin=2):
        verts = sorted({int(v) for v in vertices})
        if not verts:
            raise ValueError("vertex set must be nonempty")
        vert_set = set(verts)
        margin = int(margin)
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        seen = set()
        cleaned = []
        for e in edges:
            x, y = int(e[0]), int(e[1])
            if x == y:
                raise ValueError(f"loop edge at vertex {x}")
            if x not in vert_set or y not in vert_set:
                raise ValueError(f"edge ({x}, {y}) references an unknown vertex")
            if (x, y) in seen:
                raise ValueError(f"duplicate edge ({x}, {y})")
            if (y, x) in seen:
                raise ValueError(f"edge ({x}, {y}) conflicts with its reverse orientation")
            seen.add((x, y))
            cleaned.append((x, y))
        self.vertices = verts
        self.edges = sorted(cleaned)
        self.margin = margin

        self._adj = {v: set() for v in verts}
        for x, y in self.edges:
            self._adj[x].add(y)
            self._adj[y].add(x)

        degrees = {v: len(self._adj[v]) for v in verts}
        max_deg = max(degrees.values())
        self.boundary = sorted(v for v in verts if degrees[v] < max_deg)
        # graph distance from the boundary, by breadth-first search
        dist = {v: 0 for v in self.boundary}
        queue = deque(self.boundary)
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        self._boundary_distance = dist
        self.interior = sorted(v for v in verts if dist.get(v, np.inf) >= margin)

    def neighbors(self, v):
        return self._adj[v]


def line_window(length, margin=2):
    """Window of the integer line with uniform orientation k < k+1."""
    length = int(length)
    if length < 2:
        raise ValueError("length must be at least 2")
    return DirectedGraphWindow(
        range(length), [(k, k + 1) for k in range(length - 1)], margin=margin
    )


def grid2d_window(nx, ny, margin=2):
    """Window of the square lattice with coordinatewise orientation."""
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise ValueError("grid sides must be at least 2")
    def vid(i, j):
        return i * ny + j
    edges = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < ny:
                edges.append((vid(i, j), vid(i, j + 1)))
    return DirectedGraphWindow(range(nx * ny), edges, margin=margin)


def alternating_cycle4():
    """The 4-cycle oriented so arrows alternate around the loop."""
    return DirectedGraphWindow(range(4), [(0, 1), (2, 1), (2, 3), (0, 3)], margin=0)


@dataclass
class AdmissibilityReport:
    path_balance_ok: bool
    pair_counts_ok: bool
    position: dict | None = None
    witness_cycle: list | None = None
    witness_balance: tuple | None = None
    witness_pair: tuple | None = None
    witness_counts: tuple | None = None

    @property
    def admissible(self):
        return self.path_balance_ok and self.pair_counts_ok


def _walk_balance(forward_edges, walk):
    forward = backward = 0
    for a, b in zip(walk, walk[1:]):
        if (a, b) in forward_edges:
            forward += 1
        else:
            backward += 1
    return forward, backward


def check_admissible(window):
    """Decide both admissibility conditions, with witnesses on failure.

    Condition (i) is checked by propagating a grading breadth-first from the
    smallest vertex of each component; an inconsistent edge yields a closed
    walk with unequal forward and backward counts.  Condition (ii) is
    [K, H] = 0: with F the 0/1 incidence of the edges x < y (rows in sorted
    vertex order), F F^T counts the forward neighbors two vertices share and
    F^T F the backward ones, and their difference is [S, H]/2.  Its
    off-diagonal must vanish between vertices of full degree, because a
    vertex next to the window cut has truncated neighborhoods that say
    nothing about the underlying graph; the witness is the first offending
    pair x < y.
    """
    from scipy import sparse

    edges = set(window.edges)
    position = {}
    parent = {}
    witness_cycle = None
    witness_balance = None
    for root in window.vertices:
        if root in position:
            continue
        position[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue and witness_cycle is None:
            v = queue.popleft()
            for w in sorted(window.neighbors(v)):
                step = 1 if (v, w) in edges else -1
                if w not in position:
                    position[w] = position[v] + step
                    parent[w] = v
                    queue.append(w)
                elif position[w] != position[v] + step:
                    # closed walk: root..v, the bad edge, then w..root
                    up = []
                    node = v
                    while node is not None:
                        up.append(node)
                        node = parent[node]
                    down = []
                    node = w
                    while node is not None:
                        down.append(node)
                        node = parent[node]
                    witness_cycle = list(reversed(up)) + down
                    witness_balance = _walk_balance(edges, witness_cycle)
                    break
        if witness_cycle is not None:
            break
    balance_ok = witness_cycle is None

    verts = window.vertices
    dim = len(verts)
    ends = np.searchsorted(verts, np.array(window.edges, dtype=int).reshape(-1, 2))
    f = sparse.csr_array((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(dim, dim))
    shared_fwd, shared_bwd = f @ f.T, f.T @ f
    rows, cols = (shared_fwd - shared_bwd).nonzero()
    full = ~np.isin(verts, window.boundary)
    bad = (rows < cols) & full[rows] & full[cols]
    witness_pair = witness_counts = None
    if bad.any():
        x, y = min(zip(rows[bad].tolist(), cols[bad].tolist()))
        witness_pair = (verts[x], verts[y])
        witness_counts = (int(shared_fwd[x, y]), int(shared_bwd[x, y]))

    return AdmissibilityReport(
        path_balance_ok=balance_ok,
        pair_counts_ok=witness_pair is None,
        position=position if balance_ok else None,
        witness_cycle=witness_cycle,
        witness_balance=witness_balance,
        witness_pair=witness_pair,
        witness_counts=witness_counts,
    )


@dataclass
class GraphOperators:
    """H, K = iS and A = iT of a window, stored on its edge set.

    ``adjacency`` (H, symmetric), ``skew_momentum`` (S) and
    ``skew_conjugate`` (T, both antisymmetric) are real ``scipy.sparse``
    CSR arrays with one stored entry per edge and orientation; ``position``
    is the grading Phi as a vector indexed like their rows.
    """

    adjacency: object
    skew_momentum: object
    skew_conjugate: object
    position: np.ndarray
    interior_rows: np.ndarray
    center_row: int


def build_operators(window, report=None):
    """Assemble H, K = iS, Phi and A = iT for an admissible window.

    The summing operator L collects values over N^+(x) = {y : y < x}, so on
    a uniformly oriented line it is the raising shift; K = i(L* - L) and
    A = (Phi K + K Phi)/2 then satisfy [K, H] = 0 and [iH, A] = K*K on the
    interior of windows cut from admissible infinite graphs.  In real terms
    S = L^T - L carries +1 at (x, y) and -1 at (y, x) for every edge x < y,
    and T_xy = (Phi_x + Phi_y) S_xy / 2, since Phi is diagonal.  All three
    are built from the edge index arrays at once.  Inadmissible input is
    rejected with the full report attached.  ``report`` is the window's
    check_admissible report, computed here when not given.
    """
    if report is None:
        report = check_admissible(window)
    if not report.admissible:
        raise AdmissibilityError(report, "window fails the admissibility conditions")
    from scipy import sparse

    verts = window.vertices
    dim = len(verts)
    position = np.array([report.position[v] for v in verts], dtype=float)
    ends = np.searchsorted(verts, np.array(window.edges, dtype=int).reshape(-1, 2))
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    signs = np.repeat([1.0, -1.0], len(ends))

    def on_edges(values):
        return sparse.csr_array((values, (rows, cols)), shape=(dim, dim))

    skew_momentum = on_edges(signs)
    interior_rows = np.searchsorted(verts, np.array(window.interior, dtype=int))
    # deepest vertex: maximal distance from the inferred boundary, then
    # smallest id; this is where probe-based diagnostics see least pollution
    if window.boundary and window.interior:
        dist = window._boundary_distance
        center = min(window.interior, key=lambda v: (-dist.get(v, 0), v))
        center_row = int(np.searchsorted(verts, center))
    else:
        center_row = dim // 2
    return GraphOperators(
        adjacency=abs(skew_momentum),
        skew_momentum=skew_momentum,
        skew_conjugate=on_edges(signs * (position[rows] + position[cols]) / 2.0),
        position=position,
        interior_rows=interior_rows,
        center_row=center_row,
    )


@dataclass(frozen=True)
class InteriorResiduals:
    momentum_commutator: float
    degree_identity: float


def interior_residuals(ops):
    """Max interior row norms of [K, H] and of [iH, A] - K*K.

    Both commutators have finite range, so truncation pollution stays within
    a fixed distance of the cut and the interior rows vanish identically once
    the margin is at least two.  With K = iS and A = iT they are i[S, H] and
    S^2 - [H, T], so the row norms are those of [S, H] and S^2 - [H, T],
    formed in real arithmetic on the interior rows of the CSR operators;
    every entry is a sum of products of +-1 and +-1/2, hence exact.
    """
    if ops.interior_rows.size == 0:
        raise ValueError("interior is empty; enlarge the window or reduce the margin")
    h, s, t = ops.adjacency, ops.skew_momentum, ops.skew_conjugate
    rows = ops.interior_rows
    h_rows, s_rows, t_rows = h[rows], s[rows], t[rows]
    comm_sh = s_rows @ h - h_rows @ s
    ident = s_rows @ s - (h_rows @ t - t_rows @ h)
    r1 = float(np.sqrt(np.max((comm_sh ** 2).sum(axis=1))))
    r2 = float(np.sqrt(np.max((ident ** 2).sum(axis=1))))
    return InteriorResiduals(momentum_commutator=r1, degree_identity=r2)


@dataclass
class GraphDegreeReport:
    degree_eigenvalues: np.ndarray
    kernel_dim_degree: int
    kernel_dim_momentum: int
    kernel_match: bool
    psd_min_eigenvalue: float
    flow_residuals: dict
    probe_row: int
    note: str


def graph_degree(ops, kernel_tol=1e-8):
    """Degree operator (H+i)^{-1} K^2 (H-i)^{-1} and its consistency checks.

    Where [K, H] vanishes the degree equals K^2 (H^2+1)^{-1}, commutes with H,
    and conjugation by the flow e^{isH} leaves it fixed; the report records
    the kernel-rank comparison against K, the spectrum and its smallest
    eigenvalue, and the flow-invariance residuals at the times 0.5, 1 and 2
    on a probe concentrated deep in the interior.

    Everything is computed in real arithmetic from one ``eigh`` of
    H = V diag(lam) V^T, with H real symmetric and K = iS, S real
    antisymmetric; H and S are made dense only for that ``eigh`` and for
    the product SV, and each n-by-n temporary is released after its last
    use.  With B = (SV)^T (SV) = V^T K^2 V and D = diag(1/(lam+i)),
    the degree is V D B conj(D) V^T; the phases of D conjugate away, so it is
    unitarily similar to the real symmetric W B W, W = diag((lam^2+1)^{-1/2}),
    which gives its spectrum.  Every edge steps the grading by one, so S maps
    even positions to odd ones and back: its singular values are those of the
    even-to-odd block, each twice, plus |n_even - n_odd| zeros, and the kernel
    of K is counted on them (square roots of eigenvalues of K^2 would halve
    the digits at the cut).  The flow residuals
    |e^{is lam} G e^{-is lam} p - G p| with G = D B conj(D) and p the probe
    row of V cost one matrix-vector product each.  A complex-valued H or S,
    or a stored nonzero of S between positions of equal parity, raises
    StructureError.
    """
    s = ops.skew_momentum
    odd = ops.position % 2 == 1
    entries = s.tocoo()
    stored = entries.data != 0
    if (np.iscomplexobj(ops.adjacency) or np.iscomplexobj(s)
            or np.any(odd[entries.row[stored]] == odd[entries.col[stored]])):
        raise StructureError(
            "graph_degree expects a real adjacency, an imaginary momentum, "
            "and edges that step the grading by one"
        )

    h = ops.adjacency.toarray()
    lam, vecs = np.linalg.eigh(h)
    del h
    s_vecs = s.toarray() @ vecs
    b = s_vecs.T @ s_vecs
    del s_vecs
    probe_row = int(ops.center_row)
    d = 1.0 / (lam + 1j)
    q = d.conj() * vecs[probe_row]
    del vecs
    w = 1.0 / np.sqrt(lam * lam + 1.0)
    degree_eigvals = np.linalg.eigvalsh(w[:, None] * b * w[None, :])
    kernel_dim_degree = int(np.count_nonzero(_kernel_mask(degree_eigvals, kernel_tol)))
    even_rows, odd_rows = np.flatnonzero(~odd), np.flatnonzero(odd)
    block_sv = np.linalg.svd(s[even_rows][:, odd_rows].toarray(), compute_uv=False)
    unpaired = np.zeros(abs(even_rows.size - odd_rows.size))
    momentum_moduli = np.concatenate([block_sv, block_sv, unpaired])
    kernel_dim_momentum = int(np.count_nonzero(_kernel_mask(momentum_moduli, kernel_tol)))
    match = kernel_dim_degree == kernel_dim_momentum
    note = "" if match else "kernel ranks disagree; boundary pollution suspected, enlarge the margin"

    times = np.array([0.5, 1.0, 2.0])
    cols = np.column_stack([q, np.exp(-1j * np.outer(lam, times)) * q[:, None]])
    # B is real: apply it to the interleaved real and imaginary parts at once
    b_cols = (b @ cols.view(float)).view(complex)
    turned = np.exp(1j * np.outer(lam, times)) * b_cols[:, 1:] - b_cols[:, :1]
    norms = np.linalg.norm(d[:, None] * turned, axis=0)
    flow_residuals = {float(t): float(r) for t, r in zip(times, norms)}

    return GraphDegreeReport(
        degree_eigenvalues=degree_eigvals,
        kernel_dim_degree=kernel_dim_degree,
        kernel_dim_momentum=kernel_dim_momentum,
        kernel_match=match,
        psd_min_eigenvalue=float(degree_eigvals.min()),
        flow_residuals=flow_residuals,
        probe_row=probe_row,
        note=note,
    )


def format_graph_window(window):
    verts = window.vertices
    contiguous = verts == list(range(verts[0], verts[-1] + 1))
    if contiguous:
        vert_text = f"{verts[0]}..{verts[-1]}"
    else:
        vert_text = ",".join(str(v) for v in verts)
    lines = [
        f"# {GRAPH_FORMAT} v{GRAPH_VERSION}",
        f"# vertices: {vert_text}",
        f"# margin: {window.margin}",
    ]
    lines.extend(f"{x} {y}" for x, y in window.edges)
    return "\n".join(lines) + "\n"


def parse_graph_window(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3 or lines[0] != f"# {GRAPH_FORMAT} v{GRAPH_VERSION}":
        raise SchemaError(f"missing or unsupported graph header (want '# {GRAPH_FORMAT} v{GRAPH_VERSION}')")
    if not lines[1].startswith("# vertices:"):
        raise SchemaError("second header line must declare '# vertices: ...'")
    if not lines[2].startswith("# margin:"):
        raise SchemaError("third header line must declare '# margin: ...'")
    vert_text = lines[1].split(":", 1)[1].strip()
    try:
        if ".." in vert_text:
            lo, hi = vert_text.split("..")
            vertices = list(range(int(lo), int(hi) + 1))
        else:
            vertices = [int(tok) for tok in vert_text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"cannot parse vertex declaration {vert_text!r}") from exc
    try:
        margin = int(lines[2].split(":", 1)[1].strip())
    except ValueError as exc:
        raise SchemaError(f"cannot parse margin in {lines[2]!r}") from exc
    edges = []
    for ln in lines[3:]:
        if ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise SchemaError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise SchemaError(f"non-integer edge endpoints in {ln!r}") from exc
    try:
        return DirectedGraphWindow(vertices, edges, margin=margin)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
