"""Directed-graph windows: admissibility, operator construction, degree.

An orientation x < y on a graph is admissible when (i) every closed walk
balances forward and backward edges, equivalently an integer grading exists,
and (ii) any two distinct vertices share as many forward neighbors as
backward neighbors.  Admissible infinite graphs carry an exactly solvable
commutator structure; finite windows of them inherit it on the interior,
away from the cut, and that is where all identities are asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, SchemaError, StructureError
from .operators import _integer_array, _integral, _kernel_mask

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
    doubly oriented pairs are rejected, and so are vertex labels, edge
    endpoints and margins that are not integers.  Vertices adjacent to the
    cut cannot be recognized directly, so the boundary is inferred as the set
    of vertices of deficient degree (below the window maximum), and the
    interior consists of vertices at graph distance at least ``margin`` from
    it.  For windows of vertex-transitive graphs this matches the usual
    notion; for a regular standalone graph the boundary is empty and
    everything is interior.
    """

    def __init__(self, vertices, edges, margin=2):
        if not isinstance(vertices, (np.ndarray, range)):
            vertices = list(vertices)
        verts = np.sort(_integer_array(vertices, "vertices").ravel())
        verts = verts[np.concatenate([[True], verts[1:] != verts[:-1]])]
        if not verts.size:
            raise ValueError("vertex set must be nonempty")
        margin = _integral(margin, "margins")
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        ends = _integer_array(edges if isinstance(edges, np.ndarray) else list(edges),
                              "edge endpoints")
        if not ends.size:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edges must be pairs (x, y) of vertices")
        rows = self._edge_rows(verts, ends)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        self.vertices = verts.tolist()
        self.edges = list(zip(ends[order, 0].tolist(), ends[order, 1].tolist()))
        # positions of each edge's endpoints in the vertex list, in edge order
        self.edge_rows = rows[order]
        self.edge_rows.flags.writeable = False
        self.margin = margin

        degrees = np.bincount(rows.ravel(), minlength=verts.size)
        queue = np.flatnonzero(degrees < degrees.max()).tolist()
        self.boundary = verts[queue].tolist()
        # graph distance of each row from the boundary, by breadth-first
        # search; None where no boundary vertex reaches
        nbrs, _ = _neighbour_lists(*_half_edges(rows), verts.size)
        dist = [None] * verts.size
        for v in queue:
            dist[v] = 0
        for v in queue:
            for w in nbrs[v]:
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        self._boundary_distance = dist
        self.interior = [v for v, d in zip(self.vertices, dist) if d is None or d >= margin]

    @staticmethod
    def _edge_rows(verts, ends):
        """Positions of the edge endpoints in ``verts``.

        Raises ValueError naming the first edge, in input order, that is a
        loop, names an unknown vertex, repeats an earlier edge or reverses one.
        """
        rows = np.minimum(np.searchsorted(verts, ends), verts.size - 1)
        loop = ends[:, 0] == ends[:, 1]
        unknown = np.any(verts[rows] != ends, axis=1)
        # an edge repeats an earlier one when their unordered pairs agree; a
        # stable sort puts the first of equal pairs first
        pairs = np.sort(rows, axis=1) @ np.array([verts.size, 1])
        order = np.argsort(pairs, kind="stable")
        repeat = np.zeros(pairs.size, dtype=bool)
        repeat[order[1:]] = pairs[order[1:]] == pairs[order[:-1]]
        bad = loop | unknown | repeat
        if not bad.any():
            return rows
        i = int(np.argmax(bad))
        x, y = ends[i].tolist()
        if loop[i]:
            raise ValueError(f"loop edge at vertex {x}")
        if unknown[i]:
            raise ValueError(f"edge ({x}, {y}) references an unknown vertex")
        if ends[np.argmax(pairs == pairs[i]), 0] == x:
            raise ValueError(f"duplicate edge ({x}, {y})")
        raise ValueError(f"edge ({x}, {y}) conflicts with its reverse orientation")


def line_window(length, margin=2):
    """Window of the integer line with uniform orientation k < k+1."""
    length = _integral(length, "line lengths")
    if length < 2:
        raise ValueError("length must be at least 2")
    k = np.arange(length - 1)
    return DirectedGraphWindow(np.arange(length), np.column_stack([k, k + 1]), margin=margin)


def grid2d_window(nx, ny, margin=2):
    """Window of the square lattice with coordinatewise orientation.

    Vertex (i, j) is numbered i * ny + j (row-major)."""
    nx, ny = _integral(nx, "grid sides"), _integral(ny, "grid sides")
    if nx < 2 or ny < 2:
        raise ValueError("grid sides must be at least 2")
    grid = np.arange(nx * ny).reshape(nx, ny)
    edges = np.concatenate([
        np.column_stack([grid[:-1].ravel(), grid[1:].ravel()]),
        np.column_stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()]),
    ])
    return DirectedGraphWindow(grid.ravel(), edges, margin=margin)


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


def check_admissible(window):
    """Decide both admissibility conditions, with witnesses on failure.

    Condition (i) is checked by propagating a grading breadth-first from the
    smallest vertex of each component, over neighbour lists read off the
    sorted half-edges; an inconsistent edge yields a closed walk with
    unequal forward and backward counts.  Condition (ii) is
    [K, H] = 0: with F the 0/1 incidence of the edges x < y (rows in sorted
    vertex order), F F^T counts the forward neighbors two vertices share and
    F^T F the backward ones, and their difference is [S, H]/2.  Its
    off-diagonal must vanish between vertices of full degree, because a
    vertex next to the window cut has truncated neighborhoods that say
    nothing about the underlying graph; the witness is the first offending
    pair x < y.  Both counts come from joining the half-edges with
    themselves on their near end and step, in O(sum of squared degrees).
    """
    verts = window.vertices
    dim = len(verts)
    near, far, steps = _half_edges(window.edge_rows)
    position, parent, bad_edge = _grading(*_neighbour_lists(near, far, steps, dim))
    balance_ok = bad_edge is None
    witness_cycle = witness_balance = None
    if not balance_ok:
        # closed walk: root..v, the bad edge v -> w, then w..root
        v, w, step = bad_edge
        walks = []
        for node in (v, w):
            walk = []
            while node is not None:
                walk.append(verts[node])
                node = parent[node]
            walks.append(walk)
        witness_cycle = walks[0][::-1] + walks[1]
        # its steps sum to Phi_v along root..v, the bad step, and -Phi_w along
        # w..root: that gain is forward minus backward edges
        gain, length = position[v] + step - position[w], len(witness_cycle) - 1
        witness_balance = ((length + gain) // 2, (length - gain) // 2)

    full = np.array([d != 0 for d in window._boundary_distance])
    # pairs x < y of vertices of full degree that are the far ends of two
    # half-edges with one near end and one step: -1, a shared forward
    # neighbour (the heads agree), or +1, a shared backward one (the tails agree)
    first, second = _shared_endpoint_pairs(2 * near + (steps > 0), 2 * dim)
    x, y = far[first], far[second]
    keep = (x < y) & full[x] & full[y]
    codes, inverse = np.unique(x[keep] * dim + y[keep], return_inverse=True)
    heads = steps[first[keep]] < 0
    n_fwd = np.bincount(inverse[heads], minlength=codes.size)
    n_bwd = np.bincount(inverse[~heads], minlength=codes.size)
    witness_pair = witness_counts = None
    bad = np.flatnonzero(n_fwd != n_bwd)
    if bad.size:
        # codes ascend, so the first is the least pair
        x, y = divmod(int(codes[bad[0]]), dim)
        witness_pair = (verts[x], verts[y])
        witness_counts = (int(n_fwd[bad[0]]), int(n_bwd[bad[0]]))

    return AdmissibilityReport(
        path_balance_ok=balance_ok,
        pair_counts_ok=witness_pair is None,
        position=dict(zip(verts, position)) if balance_ok else None,
        witness_cycle=witness_cycle,
        witness_balance=witness_balance,
        witness_pair=witness_pair,
        witness_counts=witness_counts,
    )


def _half_edges(edge_rows):
    """Each edge x < y from both ends, as arrays (near, far, step) sorted by
    near end, then far end; the step is +1 along the orientation and -1
    against it, and is the entry S[near, far]."""
    near, far = np.concatenate([edge_rows, edge_rows[:, ::-1]]).T
    order = np.lexsort((far, near))
    return near[order], far[order], np.repeat([1, -1], len(edge_rows))[order]


def _neighbour_lists(near, far, steps, dim):
    """Row v's neighbours in vertex order, and the steps S[v, w] to them, as
    lists of ``dim`` lists cut from the half-edges as _half_edges sorts them."""
    bounds = np.searchsorted(near, np.arange(dim + 1)).tolist()
    far, steps = far.tolist(), steps.tolist()
    cuts = list(zip(bounds, bounds[1:]))
    return [far[lo:hi] for lo, hi in cuts], [steps[lo:hi] for lo, hi in cuts]


def _grading(nbrs, nbr_steps):
    """Positions by breadth-first search from the least row of each
    component, which sits at 0, and each row's parent in the search.

    The search stops at the first edge (v, w, step) whose step disagrees with
    the positions already given, and returns it as the third value, else None.
    """
    position, parent = [None] * len(nbrs), [None] * len(nbrs)
    for root in range(len(nbrs)):
        if position[root] is not None:
            continue
        position[root] = 0
        queue = [root]
        for v in queue:
            for w, step in zip(nbrs[v], nbr_steps[v]):
                if position[w] is None:
                    position[w], parent[w] = position[v] + step, v
                    queue.append(w)
                elif position[w] != position[v] + step:
                    return position, parent, (v, w, step)
    return position, parent, None


def _shared_endpoint_pairs(shared, size):
    """Indices (a, b) of every ordered pair of entries with the same
    ``shared`` value, a == b included; the values lie below ``size``.

    The entries are sorted by their shared value, and each is joined with
    every entry of its group, so the work is the sum of the squared group sizes.
    """
    order = np.argsort(shared, kind="stable")
    count = np.bincount(shared, minlength=size)
    reps = count[shared[order]]
    # the group of the i-th entry in sorted order starts at start[shared[order[i]]]
    start = np.cumsum(count) - count
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.repeat(order, reps), order[np.repeat(start[shared[order]], reps) + offset]


@dataclass(frozen=True)
class GraphOperators:
    """H, K = iS and A = iT of a window, held as its oriented edge rows.

    ``edge_rows`` holds the positions (x, y) of the ends of each edge x < y,
    as the window holds them, and ``position`` the grading Phi indexed like
    them.  The operators are real and vanish off the edges: H = 1 at (x, y)
    and (y, x), S = +1 at (x, y) and -1 at (y, x), and
    T = S (Phi_x + Phi_y)/2.  Every edge steps the grading by one,
    Phi_y = Phi_x + 1, as on an admissible window; rows that do not raise
    StructureError.
    """

    edge_rows: np.ndarray
    position: np.ndarray
    interior_rows: np.ndarray
    center_row: int

    def __post_init__(self):
        tails, heads = self.edge_rows.T
        if np.any(self.position[heads] - self.position[tails] != 1):
            raise StructureError("every edge x < y must step the grading by one, Phi_y = Phi_x + 1")


def build_operators(window, report=None):
    """H, K = iS, Phi and A = iT of an admissible window, on its edge rows.

    The summing operator L collects values over N^+(x) = {y : y < x}, so on
    a uniformly oriented line it is the raising shift; K = i(L* - L) and
    A = (Phi K + K Phi)/2 then satisfy [K, H] = 0 and [iH, A] = K*K on the
    interior of windows cut from admissible infinite graphs.  In real terms
    S = L^T - L carries +1 at (x, y) and -1 at (y, x) for every edge x < y,
    and T_xy = (Phi_x + Phi_y) S_xy / 2, since Phi is diagonal; so all three
    follow from the window's edge rows and the grading, which is all
    GraphOperators holds.  Inadmissible input is rejected with the full
    report attached.  ``report`` is the window's check_admissible report,
    computed here when not given.
    """
    if report is None:
        report = check_admissible(window)
    if not report.admissible:
        raise AdmissibilityError(report, "window fails the admissibility conditions")

    verts = window.vertices
    dim = len(verts)
    position = np.array([report.position[v] for v in verts], dtype=float)
    dist = window._boundary_distance
    interior_rows = [v for v, d in enumerate(dist) if d is None or d >= window.margin]
    # deepest vertex: maximal distance from the inferred boundary (0 where
    # none reaches), then smallest id; this is where probe-based diagnostics
    # see least pollution
    if window.boundary and interior_rows:
        center_row = max(interior_rows, key=lambda v: dist[v] or 0)
    else:
        center_row = dim // 2
    return GraphOperators(edge_rows=window.edge_rows, position=position,
                          interior_rows=np.array(interior_rows, dtype=int), center_row=center_row)


@dataclass(frozen=True)
class InteriorResiduals:
    momentum_commutator: float
    degree_identity: float


def interior_residuals(ops):
    """Max interior row norms of [K, H] and of [iH, A] - K*K.

    Both commutators have finite range, so truncation pollution stays within
    a fixed distance of the cut and the interior rows vanish identically once
    the margin is at least two.  With K = iS and A = iT they are i[S, H] and
    S^2 - [H, T], so the row norms are those of [S, H] and S^2 - [H, T].
    Entry (i, k) of either sums over the paths i - j - k of two half-edges,
    which check_admissible's join pairs on their shared middle vertex j.
    With s and t the entries of S and T at (j, i) on the first half-edge and
    at (j, k) on the second, S[i, j] = -s and T[i, j] = -t, so a path adds
    -s_a - s_b to [S, H] and -s_a s_b - (t_a + t_b) to S^2 - [H, T]; every
    term is a product of +-1 and +-1/2 over integers, hence exact.
    """
    if ops.interior_rows.size == 0:
        raise ValueError("interior is empty; enlarge the window or reduce the margin")
    dim, phi = ops.position.size, ops.position
    near, far, s = _half_edges(ops.edge_rows)
    t = s * (phi[near] + phi[far]) / 2.0
    a, b = _shared_endpoint_pairs(near, dim)
    interior = np.zeros(dim, dtype=bool)
    interior[ops.interior_rows] = True
    keep = interior[far[a]]
    a, b = a[keep], b[keep]
    codes, inverse = np.unique(far[a] * dim + far[b], return_inverse=True)

    def max_row_norm(terms):
        entries = np.bincount(inverse, weights=terms, minlength=codes.size)
        return float(np.sqrt(np.max(np.bincount(codes // dim, weights=entries ** 2, minlength=dim))))

    return InteriorResiduals(momentum_commutator=max_row_norm(-s[a] - s[b]),
                             degree_identity=max_row_norm(-s[a] * s[b] - (t[a] + t[b])))


@dataclass
class GraphDegreeReport:
    """What ``graph_degree`` leaves open: the kernel dimension of K (and so of
    the degree), the flow-invariance residuals by time, and the probe row."""

    kernel_dim: int
    flow_residuals: dict
    probe_row: int


def _path_eigenpairs(m):
    """Eigenpairs of the path adjacency on m vertices, in closed form.

    lam_j = 2 cos(pi j/(m+1)), written as 2 sin(pi (m+1-2j)/(2(m+1))) so that
    lam_{m+1-j} = -lam_j exactly, with the DST-I sines
    V_xj = sqrt(2/(m+1)) sin(pi (x j mod 2(m+1))/(m+1)) for x, j = 1..m.  The
    reduction keeps every sine argument below 2 pi; without it the argument
    grows like m^2 and V loses orthonormality in proportion.  The 2(m+1) sines
    are evaluated once and V gathers them.
    """
    j = np.arange(1, m + 1)
    lam = 2.0 * np.sin(np.pi * (m + 1 - 2 * j) / (2.0 * (m + 1)))
    sines = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.arange(2 * (m + 1)) / (m + 1))
    return lam, sines[np.outer(j, j) % (2 * (m + 1))]


def _lattice_sides(edge_rows, n):
    """(n,) if the edges join exactly the neighbours of the path on n
    positions, (nx, ny) if exactly those of the row-major nx-by-ny grid
    (H = P_nx (+) P_ny), else None; orientations do not matter, as H ignores them.

    Position 0 is a corner of either, so its neighbours name the only
    candidate: {1} the path, {1, ny} the grid with n/ny rows.  The candidate's
    edges are written down directly, and both edge sets are compared as
    sorted codes x * n + y of their pairs x < y, exactly.
    """
    pairs = np.sort(edge_rows, axis=1)
    steps = np.sort(pairs[pairs[:, 0] == 0, 1]).tolist()
    if steps == [1]:
        sides = (n,)
    elif len(steps) == 2 and steps[0] == 1 and n % steps[1] == 0:
        sides = (n // steps[1], steps[1])
    else:
        return None
    # a path is the n-by-1 grid: its second axis contributes no edges
    nx, ny = sides[0], n // sides[0]
    grid = np.arange(n).reshape(nx, ny)
    lattice = np.concatenate([grid[:-1].ravel() * n + grid[1:].ravel(),
                              grid[:, :-1].ravel() * n + grid[:, 1:].ravel()])
    exact = np.array_equal(np.sort(pairs[:, 0] * n + pairs[:, 1]), np.sort(lattice))
    return sides if exact else None


def _momentum_gram(edge_rows, x):
    """S^T S x for the S of ``edge_rows``, from its half-edges.

    Each row of S x sums its half-edges from zero in column order, and
    S^T y is formed as -(S y): S^T = -S, and negation commutes with rounding.
    """
    near, far, step = _half_edges(edge_rows)
    # the flat index of each half-edge's term in each column
    slots = (near[:, None] * x.shape[1] + np.arange(x.shape[1])).ravel()

    def apply(v):
        out = np.zeros_like(v)
        np.add.at(out.reshape(-1), slots, (step[:, None] * v[far]).ravel())
        return out

    return -apply(apply(x))


def graph_degree(ops):
    """Kernel and flow invariance of the degree (H+i)^{-1} K^2 (H-i)^{-1}.

    The degree is R* K^2 R with R = (H-i)^{-1} invertible, so by Sylvester's
    law of inertia it is positive semidefinite and its kernel has the
    dimension of K's; neither fact is computed.  What they leave open is
    recorded: the kernel dimension of K, and the flow-invariance residuals at
    the times 0.5, 1 and 2 on a probe concentrated deep in the interior
    (where [K, H] vanishes the degree equals K^2 (H^2+1)^{-1}, commutes with
    H, and conjugation by the flow e^{isH} leaves it fixed).

    H is real symmetric and K = iS with S real antisymmetric.  Every edge
    steps the grading by one (GraphOperators holds to that), so in even/odd
    order H = [[0, C], [C^T, 0]] and S = [[0, S_eo], [S_oe, 0]], and nothing
    larger than max(n_even, n_odd) is decomposed.  The eigenpairs
    H = V diag(lam) V^T come from one of two sources.  When the edges are
    exactly a path's or a row-major grid's (``_lattice_sides`` compares
    them), they are closed-form: the DST-I sines of ``_path_eigenpairs`` for
    a path, lam_x (+) lam_y on kron(V_x, V_y) for a grid.  Otherwise one SVD
    C = U diag(sigma) Y^T gives them, with C filled from the edges: +-sigma_i
    with eigenvectors (u_i, +-y_i)/sqrt(2), and 0 for each of the
    |n_even - n_odd| unpaired columns of U or Y.

    The step condition also gives S_eo = diag(a) C diag(b) with
    a(e) = (-1)^(Phi(e)/2) and b(o) = (-1)^((Phi(o)-1)/2), so S is H with its
    lower block negated, up to these signs, the singular values of S are
    |lam|, and the kernel of K is counted on them at the relative cut 1e-8
    (square roots of eigenvalues of K^2 would halve the digits at the cut).
    With B = V^T S^T S V = V^T K^2 V and d = 1/(lam+i) the degree is
    V diag(d) B diag(conj(d)) V^T; the flow residuals
    |e^{is lam} G e^{-is lam} p - G p| with G = diag(d) B diag(conj(d)) and
    p the probe row of V apply B as V^T (S^T S (V .)), with S^T S applied
    from the half-edges (``_momentum_gram``).
    """
    odd = ops.position % 2 == 1
    sides = _lattice_sides(ops.edge_rows, odd.size)
    if sides is not None:
        lam, vecs = _path_eigenpairs(sides[0])
        if len(sides) == 2:
            lam_y, vecs_y = _path_eigenpairs(sides[1])
            lam, vecs = (lam[:, None] + lam_y).ravel(), np.kron(vecs, vecs_y)
    else:
        even_rows, odd_rows = np.flatnonzero(~odd), np.flatnonzero(odd)
        n_even, n_odd = even_rows.size, odd_rows.size
        # C has a 1 for each edge, at the ranks of its even and its odd end
        rank = np.empty(odd.size, dtype=int)
        rank[even_rows], rank[odd_rows] = np.arange(n_even), np.arange(n_odd)
        ends = ops.edge_rows
        even_ends = np.where(odd[ends[:, 0]], ends[:, 1], ends[:, 0])
        block = np.zeros((n_even, n_odd))
        block[rank[even_ends], rank[ends.sum(axis=1) - even_ends]] = 1.0
        u, sigma, y_t = np.linalg.svd(block)
        y, k = y_t.T, sigma.size
        lam = np.concatenate([sigma, -sigma, np.zeros(n_even + n_odd - 2 * k)])
        # eigenvector columns: the pairs at +sigma, at -sigma, then the unpaired
        # columns of U and those of Y
        paired_u, paired_y = np.sqrt(0.5) * u[:, :k], np.sqrt(0.5) * y[:, :k]
        vecs = np.empty((n_even + n_odd, n_even + n_odd))
        vecs[even_rows] = np.hstack([paired_u, paired_u, u[:, k:], np.zeros((n_even, n_odd - k))])
        vecs[odd_rows] = np.hstack([paired_y, -paired_y, np.zeros((n_odd, n_even - k)), y[:, k:]])

    kernel_dim = int(np.count_nonzero(_kernel_mask(np.abs(lam), 1e-8)))

    probe_row = int(ops.center_row)
    d = 1.0 / (lam + 1j)
    q = d.conj() * vecs[probe_row]
    times = np.array([0.5, 1.0, 2.0])
    cols = np.column_stack([q, np.exp(-1j * np.outer(lam, times)) * q[:, None]])
    # B is real: apply it to the interleaved real and imaginary parts at once
    b_cols = (vecs.T @ _momentum_gram(ops.edge_rows, vecs @ cols.view(float))).view(complex)
    turned = np.exp(1j * np.outer(lam, times)) * b_cols[:, 1:] - b_cols[:, :1]
    norms = np.linalg.norm(d[:, None] * turned, axis=0)
    flow_residuals = {float(t): float(r) for t, r in zip(times, norms)}

    return GraphDegreeReport(kernel_dim=kernel_dim, flow_residuals=flow_residuals, probe_row=probe_row)


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
