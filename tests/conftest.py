import importlib.machinery
import importlib.util
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import inf, sqrt
from pathlib import Path

import numpy as np
import pytest

from specconn._kernels_py import cut_valid
from specconn.graphs import MAX_VERTICES, Graph, GraphFormatError, from_edges, vertices_of

REPO_ROOT = Path(__file__).resolve().parent.parent


def dense_rho(g: Graph) -> float:
    """Independent spectral-radius oracle: dense symmetric eigensolver."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1]) if g.n > 1 else 0.0


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def _brute_canonical_adj(g: Graph) -> tuple[int, ...]:
    """Reference canonicalization by trying all n! labelings."""
    best = None
    for perm in permutations(range(g.n)):
        rows = [0] * g.n
        for v in range(g.n):
            acc = 0
            for w in vertices_of(g.adj[v]):
                acc |= 1 << perm[w]
            rows[perm[v]] = acc
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
    return best


def _brute_min_cut(adj, n: int, g: int, r: int, mode: int) -> int:
    """Reference cut search over every size the modes allow, with no cap on
    the size: first valid set by size, then lexicographically; -1 if none."""
    lo = 0 if mode in (0, 1) else 1
    hi = n + 1 if mode == 1 else n
    for size in range(lo, hi):
        for combo in combinations(range(n), size):
            fmask = sum(1 << v for v in combo)
            if cut_valid(adj, n, fmask, g, r, mode):
                return fmask
    return -1


def _perbit_graph6_decode(text: str) -> tuple[int, ...]:
    """Reference graph6 decoder: the same checks, in the same order and with
    the same messages, as graphs.graph6_decode, then the rows built one
    payload bit at a time in the upper triangle's column-major order."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"non-printable graph6 byte {ord(ch)}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("8-byte graph6 size header exceeds the n <= 64 cap")
        if len(s) < 4:
            raise GraphFormatError("truncated multi-byte graph6 size header")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        payload = s[4:]
    else:
        n = ord(s[0]) - 63
        payload = s[1:]
    if n == 0:
        raise GraphFormatError("graph6 record encodes an empty vertex set")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(payload) != want:
        raise GraphFormatError(
            f"graph6 payload length {len(payload)} != {want} for order {n}"
        )
    pad = 6 * want - nbits
    if pad and (ord(payload[-1]) - 63) & ((1 << pad) - 1):
        raise GraphFormatError("nonzero padding bits in final graph6 group")
    rows = [0] * n
    row, col = 0, 1
    for ch in payload:
        group = ord(ch) - 63
        for shift in (5, 4, 3, 2, 1, 0):
            if col == n:
                break
            if group >> shift & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            row += 1
            if row == col:
                row, col = 0, col + 1
    return tuple(rows)


def _loop_power_iteration(adj, n, comp_mask, tol, max_iter, threshold):
    """Reference power iteration: the pure kernel's contract, computed by
    five loops per iteration as the C kernel does (z = Ax, rho, the
    infinity-norm residual, y = z + x with its norm, x = y / norm), with
    the Collatz-Wielandt bracket of x taken by a sixth loop wherever the
    iteration may stop."""
    vs = vertices_of(comp_mask)
    size = len(vs)
    if size == 1:
        return 0.0, [1.0], 0, 0.0, True, 0.0, 0.0
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[w] for w in vertices_of(adj[v] & comp_mask)] for v in vs]
    x = [1.0 / sqrt(size)] * size
    rel = 4.0 * size * sys.float_info.epsilon
    rho = 0.0
    resid = 0.0
    lower, upper = 0.0, inf
    for it in range(1, max_iter + 1):
        z = [0.0] * size
        for i, row in enumerate(nbrs):
            acc = 0.0
            for j in row:
                acc += x[j]
            z[i] = acc
        rho = 0.0
        for i in range(size):
            rho += x[i] * z[i]
        resid = 0.0
        for i in range(size):
            d = z[i] - rho * x[i]
            if d < 0.0:
                d = -d
            if d > resid:
                resid = d
        converged = resid <= tol * max(1.0, rho)
        if converged or threshold == threshold or it == max_iter:
            low, high = inf, -inf
            for i in range(size):
                if x[i] == 0.0:
                    high = inf
                    continue
                q = z[i] / x[i]
                low, high = min(low, q), max(high, q)
            lower, upper = low - rel * low, high + rel * high
            if converged or lower > threshold or upper < threshold:
                return rho, x, it, resid, converged, lower, upper
        norm = 0.0
        for i in range(size):
            z[i] += x[i]
            norm += z[i] * z[i]
        norm = sqrt(norm)
        for i in range(size):
            x[i] = z[i] / norm
    return rho, x, max_iter, resid, False, lower, upper


def _loop_graph_check(n: int, adj) -> None:
    """Reference Graph validation: the checks of Graph.__post_init__, in its
    order and with its messages, symmetry tested edge by edge."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if len(adj) != n:
        raise ValueError("adjacency length does not match vertex count")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"neighbor bits of vertex {v} out of range")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v, row in enumerate(adj):
        for w in vertices_of(row):
            if not adj[w] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {v} and {w}")


def _loop_vertices_of(mask: int) -> tuple[int, ...]:
    """Reference bit decoder: the lowest set bit, one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _pairwise_neighbours(adjs, n: int):
    """Reference _kernels_py._neighbours of a batch of two or more graphs:
    each gate of (v, u) built on its own, from v's rows."""
    full = (1 << n) - 1
    step = max(1 << n, 8)
    nbytes = step >> 3
    rep = int.from_bytes((1).to_bytes(nbytes, "little") * len(adjs), "little")
    common, gated = [], []
    for v in range(n):
        rows = [adj[v] & full for adj in adjs]
        every = some = rows[0]
        for row in rows[1:]:
            every &= row
            some |= row
        some &= ~every
        common.append(_loop_vertices_of(every))
        packed = int.from_bytes(
            b"".join([row.to_bytes(nbytes, "little") for row in rows]), "little"
        )
        gates = []
        for u in _loop_vertices_of(some):
            has = packed >> u & rep
            gates.append((u, (has << step) - has))
        gated.append(gates)
    return common, gated


def _neighbour_degrees(adj: tuple[int, ...], u: int) -> int:
    """Reference sum of the degrees of u's neighbours, from the rows: the
    walks of length 2 from u, counted by their last vertex."""
    row = adj[u]
    return sum([(row & other).bit_count() for other in adj])


def _triangles(adj: tuple[int, ...], u: int) -> int:
    """Reference twice the triangles at u, from the rows."""
    row = adj[u]
    return sum((row & adj[w]).bit_count() for w in _loop_vertices_of(row))


def _edge_list_connected_graph(rng: random.Random, n: int) -> Graph:
    """Reference transforms.random_connected_graph: the same rng calls in the
    same order, the graph built from an edge list."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    p = rng.uniform(0.1, 0.9)
    present = set(edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < p:
                edges.append((u, v))
    return from_edges(n, edges)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C kernel module, built by setup.py into a temp dir and loaded from
    there; the rest of the suite keeps the backend specconn.kernels picks."""
    root = tmp_path_factory.mktemp("build_ext")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(root / "lib"), "--build-temp", str(root / "tmp")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    built = [
        path
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        for path in (root / "lib" / "specconn").glob("_kernels" + suffix)
    ]
    if not built:
        log = (build.stderr or build.stdout).strip().splitlines()
        pytest.skip(
            "compiled kernel extension not built"
            + (f": {log[-1]}" if log else f" (setup.py exit {build.returncode})")
        )
    spec = importlib.util.spec_from_file_location("specconn._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
