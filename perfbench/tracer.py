"""Outside-in tracing of specconn's public functions.

Modules inside specconn import each other's names directly (verify does
`from .graphs import canonical_form`), so patching one module attribute
misses most calls. `install` therefore replaces every binding of each traced
function in every loaded specconn module, plus `Graph.__post_init__` on the
class. Each call becomes a span (layer, start, end, parent) kept in flat
arrays; a layer's self time is its spans' durations minus the durations of
their direct children. Work counts are read from arguments and results only:
the program itself is not changed.
"""

import sys
import time
from array import array
from collections import Counter
from math import comb

import numpy as np


def lex_rank(mask: int, n: int) -> int:
    """Position of the vertex set `mask` among combinations(range(n), size)."""
    members = [v for v in range(n) if mask >> v & 1]
    k = len(members)
    rank = 0
    prev = -1
    for i, c in enumerate(members):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def subsets_tried(n: int, mode: int, cut: int) -> int:
    """Candidate sets min_cut examines before it returns `cut` (-1: none).

    The search runs over sizes lo..hi-1, lexicographically within a size, and
    stops at the first valid set (specconn.connectivity docstring).
    """
    lo = 0 if mode in (0, 1) else 1
    hi = n + 1 if mode == 1 else n
    if cut < 0:
        return sum(comb(n, s) for s in range(lo, hi))
    size = cut.bit_count()
    return sum(comb(n, s) for s in range(lo, size)) + lex_rank(cut, n) + 1


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.layer = array("h")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cuts: list[tuple[int, int, int]] = []  # (n, mode, cut or -1)
        self.iterations_max = 0
        self._undo: list[tuple[object, str, object]] = []

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    # -- spans ----------------------------------------------------------------

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.layer.append(lid)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer: str, on_result=None):
        lid = self.layer_id(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_generator(self, fn, layer: str, count: str):
        """Span each step of the generator; count items of the outermost one."""
        lid = self.layer_id(layer)

        def traced(*args, **kwargs):
            nested = bool(self.stack) and self.layer[self.stack[-1]] == lid
            gen = fn(*args, **kwargs)

            def steps():
                while True:
                    i = self._open(lid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    if not nested:
                        self.counts[count] += 1
                    yield item

            return steps()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import specconn.census as census
        import specconn.cli as cli
        import specconn.connectivity as connectivity
        import specconn.families as families
        import specconn.graphs as graphs
        import specconn.spectral as spectral
        import specconn.transforms as transforms
        import specconn.verify as verify

        counts = self.counts

        def on_canonical_from_census(args, result):
            counts["census.children_tried"] += 1

        def on_min_cut(args, result):
            g, query = args
            self.cuts.append((g.n, int(query.mode), -1 if result is None else result.certificate.cut))

        def on_rho(args, result):
            counts["spectral.power_iterations"] += result.iterations
            self.iterations_max = max(self.iterations_max, result.iterations)

        def on_fuzz(args, report):
            counts["transforms.trials"] += report.trials
            counts["transforms.applicable"] += report.applicable
            counts["transforms.violations"] += len(report.violations)

        def on_verify(args, reports):
            counts["verify.cells"] += len(reports)
            counts["verify.confirmed"] += sum(rep.confirmed for rep in reports)

        plain = {
            graphs.canonical_form: ("graphs.canonical", None),
            graphs.graph6_decode: ("graphs.decode", None),
            graphs.graph6_encode: ("graphs.encode", None),
            graphs.from_edges: ("graphs.edit", None),
            graphs.add_edges: ("graphs.edit", None),
            graphs.remove_edges: ("graphs.edit", None),
            graphs.permute: ("graphs.edit", None),
            graphs.induced_subgraph: ("graphs.edit", None),
            connectivity.min_cut: ("connectivity.min_cut", on_min_cut),
            spectral.spectral_radius: ("spectral.rho", on_rho),
            families.construct: ("families.construct", None),
            transforms.fuzz_rotation_increase: ("transforms.fuzz", on_fuzz),
            transforms.fuzz_subgraph_monotonicity: ("transforms.fuzz", on_fuzz),
            verify.run_verification: ("verify.run", on_verify),
            cli.main: ("cli.main", None),
        }
        canonical = graphs.canonical_form
        generate = census.connected_census
        ingest = census.ingest_graph6
        cache = census._census_cache

        def traced_census(n):
            fresh = n >= 2 and n not in cache
            result = traced_generate(n)
            if fresh:
                counts["census.graphs_generated"] += len(result)
            return result

        traced_generate = self.wrap(generate, "census.generate")
        traced_ingest = self.wrap_generator(ingest, "census.ingest", "census.records_ingested")

        modules = [
            m for name, m in list(sys.modules.items())
            if name == "specconn" or name.startswith("specconn.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is generate:
                    self._patch(module, attr, traced_census)
                elif value is ingest:
                    self._patch(module, attr, traced_ingest)
                elif value is canonical and module is census:
                    self._patch(module, attr, self.wrap(
                        value, "graphs.canonical", on_canonical_from_census))
                elif callable(value) and value in plain:
                    layer, hook = plain[value]
                    self._patch(module, attr, self.wrap(value, layer, hook))
        self._patch(graphs.Graph, "__post_init__",
                    self.wrap(graphs.Graph.__post_init__, "graphs.construct"))

    # -- results --------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time, and total time of outermost spans."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.int16)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        outer = ~has_parent | (layer[np.where(has_parent, parent, 0)] != layer)
        out = {}
        for lid, name in enumerate(self.layers):
            sel = layer == lid
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(self_time[sel].sum()),
                "total_s": float(dur[sel & outer].sum()),
            }
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            layers=np.array(self.layers),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            layer=np.frombuffer(self.layer, dtype=np.int16),
        )
