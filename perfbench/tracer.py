"""Per-layer tracing of kgraphs from outside the package.

`Tracer.install` replaces each traced public function at its module
attribute, in every kgraphs module namespace that binds it (so both
intra- and cross-module calls are caught), and wraps the
`FiniteKGraph.composable_pairs` and `FiniteKGraph.factorise` methods.
`Tracer.remove` puts every original back.

Three kinds of wrapper:
  span     records (name, start, end, parent, self time) in memory;
  leaf     a hot call (`face`) whose time is summed and charged to the
           enclosing span as child time, without a span record each;
  counter  a hot call (`leq`, `placing_id`, the two methods) that is only
           counted.
A span's self time is its duration minus the time of the spans and
leaves it encloses.  Counting the benchmark does itself (composable
triples, boundary sizes, document bytes) is paused out of the clock.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

MARK = "__perfbench_wrapper__"

SPANS = {
    "simplex": ("enumerate_placings", "build_simplex", "build_sphere", "build_wedge"),
    "quotient": ("relation_from_pairs", "check_congruence", "quotient"),
    "core": ("cartesian_product", "validate_kgraph", "validate_skeleton", "cubes"),
    "homology": ("chain_complex", "smith_normal_form", "homology"),
    "surfaces": ("compact_surface", "connected_sum", "basic_surface"),
    "io": ("loads",),
    "export": ("export_json", "export_mesh", "export_dot"),
    "cli": ("main",),
}
LEAVES = {"core": ("face",)}
COUNTED = {"simplex": ("leq", "placing_id")}
METHODS = ("composable_pairs", "factorise")

def _kgraphs_modules():
    return [m for n, m in list(sys.modules.items()) if n == "kgraphs" or n.startswith("kgraphs.")]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers currently reachable from kgraphs."""
    found = []
    owners = _kgraphs_modules() + [sys.modules["kgraphs.core"].FiniteKGraph]
    for owner in owners:
        for key, value in vars(owner).items():
            if getattr(value, MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


def _composable_triples(graph) -> int:
    """Non-identity composable triples (a, b, c), counted from the table."""
    left = Counter(b for (_, b) in graph.compose_table())
    return sum(left[b] for (b, _) in graph.compose_table())


def _noop(*args, **kwargs):
    return None


def _per_call(wrap, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: the best of a few timed loops
    of the wrapped no-op minus the best of the bare no-op, at least 0."""

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(None)
            times.append(perf_counter() - t0)
        return min(times)

    return max(best(wrap(_noop)) - best(_noop), 0.0) / calls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, self_s, outermost]
        self.stack: list[list] = []  # [span index, child seconds]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.paused = 0.0
        self.patched: list[tuple] = []

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _paused(self, fn, *args) -> None:
        """Run the benchmark's own counting with the span clock stopped."""
        t0 = perf_counter()
        fn(*args)
        self.paused += perf_counter() - t0

    # -- wrappers ------------------------------------------------------------

    def _span(self, label, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args) if callable(label) else label
            outer = tracer.active[name] == 0
            rec = [name, 0.0, 0.0, tracer.stack[-1][0] if tracer.stack else -1, 0.0, outer]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(frame)
            tracer.active[name] += 1
            rec[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                tracer.active[name] -= 1
                tracer.stack.pop()
                duration = rec[2] - rec[1]
                rec[4] = duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
            if after is not None:
                tracer._paused(after, args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - t0
                tracer.calls[name] += 1
                tracer.leaf_s[name] += duration
                if tracer.stack:
                    tracer.stack[-1][1] += duration

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- what each traced call adds to the work counts -------------------------

    def _after_hooks(self):
        c = self.counts

        def placings(args, result):
            c["simplex.placings.n"] += len(result)

        def leq(args, result):
            c["simplex.leq.hits"] += bool(result)

        def quotient(args, result):
            c["quotient.morphisms_in.n"] += len(args[0])
            c["quotient.morphisms_out.n"] += len(result)

        def validate(args, result):
            c["core.assoc_triples.n"] += _composable_triples(args[0])

        def chain(args, result):
            for n in range(result.top + 1):
                c[f"homology.cells.d{n}"] += result.dim(n)
            c["homology.boundary.nnz"] += sum(result.boundary(n).nnz for n in range(result.top + 1))

        def snf(args, result):
            c["homology.snf.rank"] += result.rank

        def loads(args, result):
            c["io.loads.bytes"] += len(args[0].encode("utf-8"))

        def export_json(args, result):
            c["export.export_json.bytes"] += len(result.encode("utf-8"))

        def composable_pairs(args, result):
            if self.active["quotient.relation_from_pairs"]:
                c["quotient.saturate.rounds"] += 1

        return {
            "enumerate_placings": placings, "leq": leq, "quotient": quotient,
            "validate_kgraph": validate, "chain_complex": chain, "smith_normal_form": snf,
            "loads": loads, "export_json": export_json, "composable_pairs": composable_pairs,
        }

    # -- install / remove --------------------------------------------------------

    def install(self) -> None:
        modules = _kgraphs_modules()
        hooks = self._after_hooks()
        plan = []
        for kind, table in (("span", SPANS), ("leaf", LEAVES), ("counter", COUNTED)):
            for mod, names in table.items():
                plan += [(kind, mod, name) for name in names]
        for kind, mod, name in plan:
            original = getattr(sys.modules[f"kgraphs.{mod}"], name)
            label = f"{mod}.{name}"
            if kind == "span":
                if mod == "cli":
                    label = lambda args: "cli." + (args[0][0] if args and args[0] else "?")
                wrapper = self._span(label, original, hooks.get(name))
            elif kind == "leaf":
                wrapper = self._leaf(label, original)
            else:
                wrapper = self._counter(label, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.patched.append((module, key, original))
        graph_cls = sys.modules["kgraphs.core"].FiniteKGraph
        for name in METHODS:
            original = graph_cls.__dict__[name]
            setattr(graph_cls, name, self._counter(f"core.{name}", original, hooks.get(name)))
            self.patched.append((graph_cls, name, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self, names) -> dict[str, float]:
        """The value of each named per-layer metric.

        The name's last part says what it reads: self_s (self time), s
        (inclusive time of outermost calls), calls, hit_ratio, overhead_s
        (see `overhead`), or a work count kept by an after-call hook."""
        incl: Counter = Counter()
        own: Counter = Counter()
        calls = Counter(self.calls)
        for name, start, end, _, self_s, outer in self.spans:
            calls[name] += 1
            own[name] += self_s
            if outer:
                incl[name] += end - start
        out = {}
        for name in names:
            key, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = own[key]
            elif kind == "s":
                out[name] = incl[key] + self.leaf_s[key]
            elif kind == "calls":
                out[name] = calls[key]
            elif kind == "hit_ratio":
                out[name] = self.counts[f"{key}.hits"] / max(calls[key], 1)
            elif kind == "overhead_s":
                out[name] = self.overhead()
            else:
                out[name] = self.counts[name]
        return out

    def overhead(self) -> float:
        """Seconds the tracer added to the pass: the measured time of the
        after-call hooks, plus each wrapper's call count times its own
        per-call cost, timed here on a no-op.  A difference of two pass
        times would mostly show the host's drift, not the tracer."""
        scratch = Tracer()
        hooks = scratch._after_hooks()
        cost = {"span": _per_call(lambda f: scratch._span("span", f)),
                "leaf": _per_call(lambda f: scratch._leaf("leaf", f))}
        for name in self.calls:
            if name not in cost and name not in self.leaf_s:
                short = name.rpartition(".")[2]
                cost[name] = _per_call(lambda f: scratch._counter(name, f, hooks.get(short)))
        counted = sum(n * cost["leaf" if name in self.leaf_s else name]
                      for name, n in self.calls.items())
        return self.paused + len(self.spans) * cost["span"] + counted

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "self_s")
        path.write_text(json.dumps([dict(zip(keys, rec)) for rec in self.spans]) + "\n")
