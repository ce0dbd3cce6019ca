"""Builders for the branching-program constructions and their statistics.

Three builders produce programs computing the characteristic-coefficient
family cpc_{n,d} (output names ``cpc_<n>_<d>``):

* ``build_charzero_abp``   -- trace-recursion program, needs rationals;
* ``build_bivariate_abp``  -- bottom-right-power recursion, any ring;
* ``build_gradient_abp``   -- gradient-vector program, any ring; its layer
  j holds exactly the entries of the row vectors r_{i,j} (the last rows of
  the transposed gradients of cpc_{i,j+1}), which gives the closed-form
  counts (n-j)(n+j+1)/2 per layer and width C(n+1,2)-1.

``width_from_determinantal`` goes the other way: it recovers a program
from a square affine matrix with homogeneous determinant through exact
Gaussian elimination and a truncated Schur complement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Tuple

from .graph import AbpGraph, AffineLabel, GraphError, homogenize, sub_abp, topological_order
from .oracle import det_leibniz
from .poly import Polynomial, PolyMatrix
from .rings import RingDescriptor, RingElement, int_embed, invert


@dataclass(frozen=True)
class ConstructionStats:
    """Vertex accounting for a built program.

    ``per_layer_counts`` lists the structural vertices of layers 1..d-1
    (for the gradient builder: only the r-vector entries, with the named
    extra output vertices counted separately) and ``width`` is their
    maximum.  ``size`` excludes the source and the out-degree-0 sinks,
    ``total_vertices`` counts everything.
    """

    width: int
    per_layer_counts: Tuple[int, ...]
    rvector_total: Optional[int]
    extra_output_vertices: Optional[int]
    total_vertices: int
    size: int
    edge_count: int
    outputs: Tuple[Tuple[str, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "per_layer_counts": list(self.per_layer_counts),
            "rvector_total": self.rvector_total,
            "extra_output_vertices": self.extra_output_vertices,
            "total_vertices": self.total_vertices,
            "size": self.size,
            "edge_count": self.edge_count,
            "outputs": [list(o) for o in self.outputs],
        }


def stats_from_graph(g: AbpGraph) -> ConstructionStats:
    """Re-derive statistics from vertex naming conventions."""
    rverts = [v for v in g.layer if v.startswith("r_")]
    per_layer = Counter(g.layer[v] for v in (rverts or g.layer))
    counts = tuple(per_layer[lay] for lay in range(1, g.num_layers))
    if rverts:
        extra = sum(1 for v in g.layer if v.startswith("c_"))
        rtotal = len(rverts)
    else:
        extra = None
        rtotal = None
    outputs = tuple(sorted((name, g.layer[v]) for name, v in g.outputs.items()))
    return ConstructionStats(
        width=max(counts, default=0),
        per_layer_counts=counts,
        rvector_total=rtotal,
        extra_output_vertices=extra,
        total_vertices=len(g.layer),
        size=g.size(),
        edge_count=len(g.edges),
        outputs=outputs,
    )


# -- closed-form counts for the gradient construction ---------------------------


def gradient_layer_count(n: int, j: int) -> int:
    return (n - j) * (n + j + 1) // 2


def gradient_width(n: int) -> int:
    return comb(n + 1, 2) - 1


def gradient_vertex_total(n: int, d: int) -> int:
    return (d - 1) * comb(n + 1, 2) - comb(d + 1, 3)


def comparison_report(n: int, d: Optional[int] = None) -> dict:
    """Compare the gradient construction against the n^3 / n^2 baseline."""
    if d is None:
        d = n
    if not 1 <= d <= n:
        raise GraphError("parameters out of range: need 1 <= d <= n")
    ours_vertices = gradient_vertex_total(n, d)
    ours_width = gradient_width(n)
    baseline_vertices = n ** 3
    baseline_width = n ** 2
    return {
        "n": n,
        "d": d,
        "vertices": ours_vertices,
        "width": ours_width,
        "baseline_vertices": baseline_vertices,
        "baseline_width": baseline_width,
        "vertex_ratio": baseline_vertices / ours_vertices if ours_vertices else None,
        "width_ratio": baseline_width / ours_width if ours_width else None,
    }


# -- trace-recursion construction (needs rationals) ------------------------------


def build_charzero_abp(n: int, d_max: int, ring: RingDescriptor) -> AbpGraph:
    """Program with outputs cpc_n_0 .. cpc_n_dmax from the trace recursion.

    Vertex v_d accumulates, for i = 1..d, the contribution of v_{d-i}
    times (-1)^(i+1)/d * trace of the i-th matrix power; division by d
    requires a ring containing the rationals.  Each trace sub-program
    tracks (start, current) walk states, so its width is at most n^2.
    """
    if not ring.contains_rationals:
        raise GraphError("construction requires characteristic zero")
    if n < 1 or d_max < 0:
        raise GraphError("parameters out of range")
    g = AbpGraph("abp", ring, n, d_max)
    for d in range(0, d_max + 1):
        g.add_vertex(f"v_{d}", d)
    g.set_source("v_0")
    for d in range(1, d_max + 1):
        inv_d = invert(int_embed(ring, d))
        for i in range(1, d + 1):
            coeff = (int_embed(ring, -1) ** (i + 1)) * inv_d
            if i == 1:
                label = AffineLabel.make(
                    ring.zero(), {(a, a): coeff for a in range(1, n + 1)}
                )
                g.add_edge(f"v_{d - 1}", f"v_{d}", label)
                continue
            for l in range(1, i):
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        g.add_vertex(f"w_{d}_{i}_{l}_{a}_{b}", d - i + l)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    g.add_edge(f"v_{d - i}", f"w_{d}_{i}_1_{a}_{b}",
                               AffineLabel.variable(ring, a, b))
            for l in range(1, i - 1):
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        for c in range(1, n + 1):
                            g.add_edge(f"w_{d}_{i}_{l}_{a}_{b}", f"w_{d}_{i}_{l + 1}_{a}_{c}",
                                       AffineLabel.variable(ring, b, c))
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    closing = AffineLabel.make(ring.zero(), {(b, a): coeff})
                    g.add_edge(f"w_{d}_{i}_{i - 1}_{a}_{b}", f"v_{d}", closing)
    for d in range(0, d_max + 1):
        g.add_output(f"cpc_{n}_{d}", f"v_{d}")
    return g


# -- bottom-right-power construction (any ring) -----------------------------------


def build_bivariate_abp(n: int, d_max: int, ring: RingDescriptor) -> AbpGraph:
    """Program with outputs cpc_i_j for all j <= i <= n, j <= d_max.

    Vertex v_{i,j} is assembled from v_{i-1,j} (weight 1) and, for
    i' = 1..j, from v_{i,j-i'} through a sub-program computing
    (-1)^(i'+1) times the bottom-right entry of the i'-th power of the
    leading i x i block.  Works over every commutative ring.
    """
    if n < 1 or d_max < 0:
        raise GraphError("parameters out of range")
    d_max = min(d_max, n)
    g = AbpGraph("abp", ring, n, d_max)
    one = AffineLabel.const(int_embed(ring, 1))
    for i in range(0, n + 1):
        g.add_vertex(f"v_{i}_0", 0)
    g.set_source("v_0_0")
    for i in range(0, n):
        g.add_edge(f"v_{i}_0", f"v_{i + 1}_0", one)
    for j in range(1, d_max + 1):
        for i in range(j, n + 1):
            g.add_vertex(f"v_{i}_{j}", j)
            if i > j:
                g.add_edge(f"v_{i - 1}_{j}", f"v_{i}_{j}", one)
            for ip in range(1, j + 1):
                sign = 1 if ip % 2 == 1 else -1
                src = f"v_{i}_{j - ip}"
                if ip == 1:
                    g.add_edge(src, f"v_{i}_{j}", AffineLabel.variable(ring, i, i, sign))
                    continue
                for l in range(1, ip):
                    for b in range(1, i + 1):
                        g.add_vertex(f"w_{i}_{j}_{ip}_{l}_{b}", j - ip + l)
                for b in range(1, i + 1):
                    g.add_edge(src, f"w_{i}_{j}_{ip}_1_{b}", AffineLabel.variable(ring, i, b))
                for l in range(1, ip - 1):
                    for b in range(1, i + 1):
                        for c in range(1, i + 1):
                            g.add_edge(f"w_{i}_{j}_{ip}_{l}_{b}", f"w_{i}_{j}_{ip}_{l + 1}_{c}",
                                       AffineLabel.variable(ring, b, c))
                for b in range(1, i + 1):
                    g.add_edge(f"w_{i}_{j}_{ip}_{ip - 1}_{b}", f"v_{i}_{j}",
                               AffineLabel.variable(ring, b, i, sign))
    for i in range(0, n + 1):
        for j in range(0, min(i, d_max) + 1):
            g.add_output(f"cpc_{i}_{j}", f"v_{i}_{j}")
    return g


# -- gradient-vector construction (any ring) ---------------------------------------


def build_gradient_abp(n: int, d_max: int, ring: RingDescriptor) -> Tuple[AbpGraph, ConstructionStats]:
    """Program whose layer-j vertices are the entries of the vectors r_{i,j}.

    Vertex r_{i}_{j}_{a} holds entry a of r_{i,j}; the recursion
    r_{i,j+1} = ( -r_{i,j} L_i | sum_{i'=j+1..i-1} r_{i',j} C_{i'} ) makes
    every edge label beyond the first edge layer a single signed variable.
    Trace entries in the first layer are realized as a diagonal chain of
    x[i,i] edges joined by constant-1 edges.  Outputs cpc_i_j for all
    j <= d_max come either free (entry i+1 of r_{i+1,j} equals cpc_{i,j})
    or through one extra vertex each (ids ``c_<i>_<j>``).
    """
    if not 1 <= d_max <= n:
        raise GraphError("parameters out of range: need 1 <= d <= n")
    g = AbpGraph("abp", ring, n, d_max)
    g.add_vertex("s", 0)
    g.set_source("s")
    one = AffineLabel.const(int_embed(ring, 1))

    # r-vector vertices: layer j (1 <= j < d_max) holds r_{i,j} for j < i <= n
    for j in range(1, d_max):
        for i in range(j + 1, n + 1):
            for a in range(1, i + 1):
                g.add_vertex(f"r_{i}_{j}_{a}", j)

    if d_max >= 2:
        # first edge layer: entries of r_{i,1} = (-x[i,1] .. -x[i,i-1], tr_{i-1})
        for i in range(2, n + 1):
            for a in range(1, i):
                g.add_edge("s", f"r_{i}_1_{a}", AffineLabel.variable(ring, i, a, -1))
            g.add_edge("s", f"r_{i}_1_{i}", AffineLabel.variable(ring, i - 1, i - 1))
            if i >= 3:
                g.add_edge(f"r_{i - 1}_1_{i - 1}", f"r_{i}_1_{i}", one)
        # transitions between r-vector layers
        for j in range(1, d_max - 1):
            for i in range(j + 2, n + 1):
                for a in range(1, i):
                    for b in range(1, i + 1):
                        g.add_edge(f"r_{i}_{j}_{b}", f"r_{i}_{j + 1}_{a}",
                                   AffineLabel.variable(ring, b, a, -1))
                for ip in range(j + 1, i):
                    for b in range(1, ip + 1):
                        g.add_edge(f"r_{ip}_{j}_{b}", f"r_{i}_{j + 1}_{i}",
                                   AffineLabel.variable(ring, b, ip))

    # outputs of degree 0: the source computes 1
    for i in range(0, n + 1):
        g.add_output(f"cpc_{i}_0", "s")

    if d_max == 1:
        # plain diagonal chain computing the traces tr_1 .. tr_n
        for i in range(1, n + 1):
            g.add_vertex(f"c_{i}_1", 1)
            g.add_edge("s", f"c_{i}_1", AffineLabel.variable(ring, i, i))
            if i >= 2:
                g.add_edge(f"c_{i - 1}_1", f"c_{i}_1", one)
            g.add_output(f"cpc_{i}_1", f"c_{i}_1")
        return g, stats_from_graph(g)

    # free outputs: entry i+1 of r_{i+1,j} computes cpc_{i,j}
    for j in range(1, d_max):
        for i in range(j, n):
            g.add_output(f"cpc_{i}_{j}", f"r_{i + 1}_{j}_{i + 1}")
    # cpc_{n,1} extends the diagonal chain by one vertex
    g.add_vertex(f"c_{n}_1", 1)
    g.add_edge("s", f"c_{n}_1", AffineLabel.variable(ring, n, n))
    g.add_edge(f"r_{n}_1_{n}", f"c_{n}_1", one)
    g.add_output(f"cpc_{n}_1", f"c_{n}_1")
    # cpc_{n,j} for 1 < j < d_max: one extra vertex fed by all r_{i,j-1} C_i
    for j in range(2, d_max):
        g.add_vertex(f"c_{n}_{j}", j)
        for i in range(j, n + 1):
            for a in range(1, i + 1):
                g.add_edge(f"r_{i}_{j - 1}_{a}", f"c_{n}_{j}", AffineLabel.variable(ring, a, i))
        g.add_output(f"cpc_{n}_{j}", f"c_{n}_{j}")
    # top layer: cpc_{i,d_max} for d_max <= i <= n, one extra vertex each
    for i in range(d_max, n + 1):
        g.add_vertex(f"c_{i}_{d_max}", d_max)
        for ip in range(d_max, i + 1):
            for a in range(1, ip + 1):
                g.add_edge(f"r_{ip}_{d_max - 1}_{a}", f"c_{i}_{d_max}",
                           AffineLabel.variable(ring, a, ip))
        g.add_output(f"cpc_{i}_{d_max}", f"c_{i}_{d_max}")
    return g, stats_from_graph(g)


# -- block transition matrices -------------------------------------------------------


def transition_matrix(n: int, d: int, ring: RingDescriptor) -> PolyMatrix:
    """Block matrix carrying (r_{d,d-1},..,r_{n,d-1}) to (r_{d+1,d},..,r_{n,d}).

    Block (i, i') is (-L_i | 0) on the diagonal i = i', (0 | C_i) above it
    and 0 below; every entry is a variable, a negated variable or zero.
    """
    if not (2 <= d <= n):
        raise GraphError("parameters out of range: need 2 <= d <= n")
    row_blocks = list(range(d, n + 1))
    col_blocks = list(range(d + 1, n + 1))
    rows = sum(row_blocks)
    cols = sum(col_blocks)
    zero = Polynomial.zero(ring, n)
    ents = [[zero for _ in range(cols)] for _ in range(rows)]
    row_off = 0
    for i in row_blocks:
        col_off = 0
        for ip in col_blocks:
            if i == ip:
                # (-L_i | 0): columns 1..i-1 hold -x[a,b], the last is zero
                for a in range(1, i + 1):
                    for b in range(1, i):
                        ents[row_off + a - 1][col_off + b - 1] = \
                            -Polynomial.variable(ring, n, a, b)
            elif i < ip:
                # (0 | C_i): only the last column holds x[a,i]
                for a in range(1, i + 1):
                    ents[row_off + a - 1][col_off + ip - 1] = \
                        Polynomial.variable(ring, n, a, i)
            col_off += ip
        row_off += i
    return PolyMatrix.from_rows(ring, n, ents)


# -- recovery from a determinantal representation --------------------------------------


def _identity_rows(ring: RingDescriptor, s: int) -> List[List[RingElement]]:
    zero, one = int_embed(ring, 0), int_embed(ring, 1)
    return [[one if a == b else zero for b in range(s)] for a in range(s)]


def _field_normal_form(m0: List[List[RingElement]], ring: RingDescriptor):
    """g, h, rank with g*m0*h = [[0,0],[0,I_rank]] and det(g)*det(h) = 1.

    Full-pivot Gaussian elimination first reaches [[I,0],[0,0]], a block
    swap moves the identity to the bottom-right, and the accumulated
    determinant of the transformation pair is compensated by scaling one
    row inside the zero block (possible because the rank is not full).
    """
    s = len(m0)
    a = [row[:] for row in m0]
    g = _identity_rows(ring, s)
    h = _identity_rows(ring, s)
    det_g = int_embed(ring, 1)
    det_h = int_embed(ring, 1)
    minus_one = int_embed(ring, -1)
    rank = 0
    for k in range(s):
        pivot = None
        for pr in range(k, s):
            for pc in range(k, s):
                if not a[pr][pc].is_zero():
                    pivot = (pr, pc)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pr, pc = pivot
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            g[k], g[pr] = g[pr], g[k]
            det_g = det_g * minus_one
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
            for row in h:
                row[k], row[pc] = row[pc], row[k]
            det_h = det_h * minus_one
        inv_p = invert(a[k][k])
        a[k] = [inv_p * e for e in a[k]]
        g[k] = [inv_p * e for e in g[k]]
        det_g = det_g * inv_p
        for rr in range(s):
            if rr != k and not a[rr][k].is_zero():
                f = a[rr][k]
                a[rr] = [a[rr][c] - f * a[k][c] for c in range(s)]
                g[rr] = [g[rr][c] - f * g[k][c] for c in range(s)]
        for cc in range(s):
            if cc != k and not a[k][cc].is_zero():
                f = a[k][cc]
                for row in a:
                    row[cc] = row[cc] - f * row[k]
                for row in h:
                    row[cc] = row[cc] - f * row[k]
        rank += 1
    # move the identity block to the bottom-right; the same permutation on
    # rows of g and columns of h leaves det(g)*det(h) unchanged
    order = list(range(rank, s)) + list(range(rank))
    g = [g[r] for r in order]
    h = [[row[c] for c in order] for row in h]
    if rank == s:
        raise GraphError("constant part has full rank")
    u = det_g * det_h
    if not u.is_one():
        inv_u = invert(u)
        g[0] = [inv_u * e for e in g[0]]
    return g, h, rank


def _assert_signed_variable(label: AffineLabel) -> Tuple[int, int, int]:
    sv = label.single_variable()
    if sv is None:
        raise GraphError("expected a signed single-variable edge label")
    return sv


def width_from_determinantal(m: PolyMatrix, d: int, ring: RingDescriptor) -> AbpGraph:
    """Recover a layered program computing det(m) from an affine matrix.

    Requires a field and det(m) nonzero homogeneous of degree d.  After
    normalizing the constant part to [[0,0],[0,I]] by row/column
    operations (g, h), the blocks of g*m*h = [[A,B],[C,I-D]] define
    W = A - B (sum_{l<=d-2} D^l) C, whose determinant agrees with det(m)
    in degree d.  Each signed-variable edge of the base determinant
    program is replaced by an affine sub-program for the matching entry of
    W, and the result is homogenized back to degree d.  Output: ``det``.
    """
    if not ring.is_field:
        raise GraphError("recovery requires a field")
    if m.rows != m.cols or m.ring != ring:
        raise GraphError("expected a square matrix over the given ring")
    s = m.rows
    ambient = m.ambient_n
    for p in m.entries:
        if p.degree > 1:
            raise GraphError("matrix entries must be affine")
    f = det_leibniz(m)
    if f.is_zero() or f.homogeneous_component(d) != f:
        raise GraphError("determinant is not homogeneous of the stated degree")

    zero = int_embed(ring, 0)
    m0 = [[m.entry(a, b).constant_term() for b in range(1, s + 1)] for a in range(1, s + 1)]
    m1 = PolyMatrix(ring, ambient, s, s,
                    [p - Polynomial.constant(ring, ambient, p.constant_term()) for p in m.entries])
    g_rows, h_rows, rank = _field_normal_form(m0, ring)
    k = s - rank
    if k > d:
        raise GraphError("zero-block larger than the degree; determinant must vanish")
    t = PolyMatrix.from_constants(ring, ambient, g_rows) * m1 * \
        PolyMatrix.from_constants(ring, ambient, h_rows)
    idx_top = list(range(1, k + 1))
    idx_bot = list(range(k + 1, s + 1))
    block_a = t.submatrix(idx_top, idx_top)
    block_b = t.submatrix(idx_top, idx_bot) if rank else None
    block_c = t.submatrix(idx_bot, idx_top) if rank else None
    block_d = -t.submatrix(idx_bot, idx_bot) if rank else None

    base, _stats = build_gradient_abp(k, k, ring)
    base = sub_abp(base, f"cpc_{k}_{k}")

    out = AbpGraph("aabp", ring, ambient, 0)
    for vid in sorted(base.layer, key=lambda v: (base.layer[v], v)):
        out.add_vertex(vid, 0)
    out.set_source(base.source)
    chain_count = 0
    pending: List[Tuple[str, str, AffineLabel]] = []
    for (u, v) in sorted(base.edges):
        lab = base.edges[(u, v)]
        if lab.is_constant():
            pending.append((u, v, lab))
            continue
        alpha, beta, sign = _assert_signed_variable(lab)
        # direct part: the A-block entry, signed
        a_entry = block_a.entry(alpha, beta)
        direct = AffineLabel.from_polynomial(a_entry if sign > 0 else -a_entry)
        if not direct.is_zero():
            pending.append((u, v, direct))
        if rank == 0 or d < 2:
            continue
        chain_count += 1
        tag = f"z{chain_count}"
        for l in range(0, d - 1):
            for c in range(1, rank + 1):
                out.add_vertex(f"{tag}_{l}_{c}", 0)
        for c in range(1, rank + 1):
            start = AffineLabel.from_polynomial(
                -block_b.entry(alpha, c) if sign > 0 else block_b.entry(alpha, c))
            if not start.is_zero():
                pending.append((u, f"{tag}_0_{c}", start))
            close = AffineLabel.from_polynomial(block_c.entry(c, beta))
            for l in range(0, d - 1):
                if not close.is_zero():
                    pending.append((f"{tag}_{l}_{c}", v, close))
        for l in range(0, d - 2):
            for c in range(1, rank + 1):
                for cc in range(1, rank + 1):
                    step = AffineLabel.from_polynomial(block_d.entry(c, cc))
                    if not step.is_zero():
                        pending.append((f"{tag}_{l}_{c}", f"{tag}_{l + 1}_{cc}", step))
    # assign a strictly increasing topological index (longest path from source)
    order = topological_order(list(out.layer), [(u, v) for (u, v, _lab) in pending])
    if len(order) != len(out.layer):
        raise GraphError("spliced graph is not acyclic")
    rank = {v: k for k, v in enumerate(order)}
    depth = dict.fromkeys(order, 0)
    for (u, v, _lab) in sorted(pending, key=lambda e: rank[e[0]]):
        depth[v] = max(depth[v], depth[u] + 1)
    final = AbpGraph("aabp", ring, ambient, max(depth.values(), default=0))
    for vid in sorted(out.layer, key=lambda v: (depth[v], v)):
        final.add_vertex(vid, depth[vid])
    final.set_source(out.source)
    for (u, v, lab) in pending:
        final.add_edge(u, v, lab)
    final.add_output("det", base.outputs[f"cpc_{k}_{k}"])
    return homogenize(final, d)
