"""Reference facts for the verify workloads, checked independently of specconn.

A fact is what the census says about one cell (delta, k) of one parameter
set: its population, the best spectral radius, the best graph up to
isomorphism and the second-best radius. Verdicts are not facts: they depend
on the claimed families, which later changes may legitimately alter.

Nothing here imports specconn. Graphs are read with a local graph6 decoder,
isomorphism is tested by a local backtracking matcher and every reported best
radius is recomputed with numpy's dense symmetric eigensolver.
"""

import hashlib
import json
import os
import random

RHO_TOL = 1e-8  # same tolerance as specconn.verify.RHO_TOL; relabelling moves the last bits

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")


# ---------------------------------------------------------------------------
# graph6 (single size byte, n <= 62), adjacency as a list of bitmasks

def decode_g6(text: str) -> list[int]:
    s = text.strip()
    n = ord(s[0]) - 63
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if (ord(s[1 + i // 6]) - 63) >> (5 - i % 6) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return rows


def encode_g6(rows: list[int]) -> str:
    n = len(rows)
    bits = [rows[row] >> col & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    groups = (
        int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)
    )
    return chr(n + 63) + "".join(chr(v + 63) for v in groups)


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Vertex v becomes perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        acc = 0
        for w in range(len(rows)):
            if row >> w & 1:
                acc |= 1 << perm[w]
        out[perm[v]] = acc
    return out


def shuffled_relabelled(lines: list[str], seed: int) -> list[str]:
    """Every record relabelled by its own seeded permutation, order shuffled."""
    rng = random.Random(seed)
    out = []
    for line in lines:
        rows = decode_g6(line)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        out.append(encode_g6(relabel(rows, perm)))
    rng.shuffle(out)
    return out


def file_digest(path: str) -> tuple[int, str]:
    with open(path, "rb") as handle:
        data = handle.read()
    return data.count(b"\n"), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# independent isomorphism test and spectral radius

def isomorphic(a: list[int], b: list[int]) -> bool:
    n = len(a)
    if n != len(b):
        return False

    def colours(rows):
        deg = [r.bit_count() for r in rows]
        return [
            (deg[v], tuple(sorted(deg[w] for w in range(n) if rows[v] >> w & 1)))
            for v in range(n)
        ]

    ca, cb = colours(a), colours(b)
    if sorted(ca) != sorted(cb):
        return False
    order = sorted(range(n), key=lambda v: ca[v])
    image = [-1] * n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if any(
                (a[v] >> u & 1) != (b[w] >> image[u] & 1) for u in order[:i]
            ):
                continue
            image[v] = w
            used |= 1 << w
            if extend(i + 1):
                return True
            used &= ~(1 << w)
        image[v] = -1
        return False

    return extend(0)


def dense_rho(rows: list[int]) -> float:
    import numpy as np

    n = len(rows)
    a = np.array([[rows[v] >> w & 1 for w in range(n)] for v in range(n)], dtype=float)
    return float(np.linalg.eigvalsh(a)[-1])


# ---------------------------------------------------------------------------
# facts

def param_key(mode: str, g: int, r: int) -> str:
    return f"{mode}:g={g}:r={r}"


def cell_key(delta: int, k: int) -> str:
    return f"{delta},{k}"


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def report_facts(report: dict) -> tuple[str, dict]:
    """Facts of one report in the schema-1 JSON form written by specconn."""
    cls = report["class"]
    best = report["best"]
    return cell_key(cls["delta"], cls["k"]), {
        "population": report["population"],
        "best_rho": None if best is None else best["rho"],
        "best_graph6": None if best is None else best["graph6"],
        "second_best_rho": report["second_best_rho"],
    }


def _close(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return abs(x - y) <= RHO_TOL


def compare_cell(got: dict, want: dict) -> list[str]:
    """Differences between one reported cell and its reference fact."""
    bad = []
    if got["population"] != want["population"]:
        bad.append(f"population {got['population']} != {want['population']}")
    if not _close(got["best_rho"], want["best_rho"]):
        bad.append(f"best rho {got['best_rho']!r} != {want['best_rho']!r}")
    if not _close(got["second_best_rho"], want["second_best_rho"]):
        bad.append(
            f"second-best rho {got['second_best_rho']!r} != {want['second_best_rho']!r}"
        )
    if got["best_graph6"] is not None:
        rows = decode_g6(got["best_graph6"])
        if not isomorphic(rows, decode_g6(want["best_canonical"])):
            bad.append(f"best graph {got['best_graph6']} not isomorphic to the reference")
        dense = dense_rho(rows)
        if got["best_rho"] is None or abs(dense - got["best_rho"]) > RHO_TOL:
            bad.append(f"best rho {got['best_rho']!r} != eigvalsh {dense!r}")
    return bad


def compare_cells(got: dict[str, dict], want: dict[str, dict]) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, messages); a missing or extra cell fails."""
    keys = sorted(set(got) | set(want))
    failed = 0
    errors = []
    for key in keys:
        if key not in want:
            bad = ["not in the reference"]
        elif key not in got:
            bad = ["missing from the report"]
        else:
            bad = compare_cell(got[key], want[key])
        failed += bool(bad)
        errors.extend(f"cell {key}: {msg}" for msg in bad)
    return len(keys), failed, errors
