"""Per-layer tracing of dirmat, done from outside the program.

install() replaces each traced function with a wrapper in every dirmat
module that holds a reference to it, so calls the program makes to itself
are seen as well as the benchmark's own.  Each wrapped call records a span
(name, start, end, parent, operation id) in memory.  The rank function that
dirichlet.dirichlet_matroid hands to Matroid is counted and timed without a
span, because one cover search calls it hundreds of thousands of times; its
time is still charged to the enclosing span's children.  uninstall() puts
the originals back.

A layer's `.ms` is the total time inside its calls; `.self_ms` subtracts the
time of traced calls and rank calls made inside it.
"""

import sys
import time
import weakref

# (module, function) pairs wrapped in every dirmat module that imports them.
FUNCTIONS = (
    ("circular", "min_circuit_cover"),
    ("circular", "dual_network"),
    ("dirichlet", "dirichlet_matroid"),
    ("dirichlet", "network_cocircuits"),
    ("network", "crossings"),
    ("network", "groves"),
    ("grovepoly", "grove_polys"),
    ("electrical", "grove_identities"),
    ("electrical", "response"),
    ("electrical", "hpp_sample"),
    ("electrical", "proper_position_checks"),
    ("electrical", "line_restriction"),
    ("sturm", "interlace_check"),
)

# Reported per-layer metrics: name -> unit.
PER_LAYER = {
    "circular.min_circuit_cover.calls": "count",
    "circular.min_circuit_cover.self_ms": "ms",
    "matroid.circuits.calls": "count",
    "matroid.circuits.self_ms": "ms",
    "matroid.circuits.scanned": "count",
    "matroid.circuits.found": "count",
    "matroid.circuits.yield": "ratio",
    "circular.dual_network.calls": "count",
    "circular.dual_network.ms": "ms",
    "dirichlet.dirichlet_matroid.calls": "count",
    "dirichlet.dirichlet_matroid.ms": "ms",
    "dirichlet.network_cocircuits.ms": "ms",
    "dirichlet.rank.calls": "count",
    "dirichlet.rank.ms": "ms",
    "network.crossings.ms": "ms",
    "network.crossings.found": "count",
    "network.groves.ms": "ms",
    "network.groves.found": "count",
    "grovepoly.grove_polys.ms": "ms",
    "electrical.line_restriction.calls": "count",
    "electrical.line_restriction.ms": "ms",
    "sturm.interlace_check.calls": "count",
    "sturm.interlace_check.ms": "ms",
    "electrical.hpp_sample.calls": "count",
    "electrical.hpp_sample.ms": "ms",
    "electrical.proper_position_checks.calls": "count",
    "electrical.proper_position_checks.ms": "ms",
    "electrical.grove_identities.calls": "count",
    "electrical.grove_identities.self_ms": "ms",
    "electrical.response.calls": "count",
    "electrical.response.ms": "ms",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.totals = {}  # name -> [calls, total_ns, self_ns]
        self.counts = {"matroid.circuits.scanned": 0, "matroid.circuits.found": 0,
                       "network.crossings.found": 0, "network.groves.found": 0}
        self.op_id = -1
        self._stack = []  # [span index, start_ns, child_ns]
        self._patches = []
        self._crossings_seen = weakref.WeakSet()
        self._groves_seen = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _close(self, name, frame, end):
        idx, start, child = frame
        dur = end - start
        self.spans[idx][2] = end
        tot = self.totals.setdefault(name, [0, 0, 0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        start = time.perf_counter_ns()
        self.spans.append([name, start, 0, parent, self.op_id])
        frame = [idx, start, 0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(name, frame, end)

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted_rank(self, rank):
        totals = self.totals.setdefault("dirichlet.rank", [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def counted(mask):
            start = clock()
            r = rank(mask)
            dur = clock() - start
            totals[0] += 1
            totals[1] += dur
            totals[2] += dur
            if stack:
                stack[-1][2] += dur
            return r

        return counted

    # -- counters fed from results ---------------------------------------------

    def _after_crossings(self, args, kwargs, result):
        net = args[0]
        if net not in self._crossings_seen:
            self._crossings_seen.add(net)
            self.counts["network.crossings.found"] += len(result)

    def _after_groves(self, args, kwargs, result):
        net = args[0]
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "all")
        modes = self._groves_seen.setdefault(net, set())
        if mode not in modes:
            modes.add(mode)
            self.counts["network.groves.found"] += len(result)

    def _after_circuits(self, args, kwargs, result):
        matroid = args[0]
        within = args[1] if len(args) > 1 else kwargs.get("within")
        scope = len(matroid.ground) if within is None else len(set(within))
        self.counts["matroid.circuits.scanned"] += 1 << scope
        self.counts["matroid.circuits.found"] += len(result)

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dirmat" or n.startswith("dirmat.")]
        after = {"network.crossings": self._after_crossings,
                 "network.groves": self._after_groves}
        for modname, fname in FUNCTIONS:
            name = f"{modname}.{fname}"
            orig = getattr(sys.modules[f"dirmat.{modname}"], fname)
            wrapper = self._wrap(name, orig, after.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, attr, wrapper)

        matroid_cls = sys.modules["dirmat.matroid"].Matroid
        self._set(matroid_cls, "circuits",
                  self._wrap("matroid.circuits", matroid_cls.circuits, self._after_circuits))
        counted_rank = self._counted_rank

        class CountedMatroid(matroid_cls):
            def __init__(self, ground, rank_of_mask, name="M"):
                super().__init__(ground, counted_rank(rank_of_mask), name)

        self._set(sys.modules["dirmat.dirichlet"], "Matroid", CountedMatroid)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------------

    def metrics(self):
        out = {}
        for metric, unit in PER_LAYER.items():
            layer, _, field = metric.rpartition(".")
            calls, total_ns, self_ns = self.totals.get(layer, (0, 0, 0))
            if field == "calls":
                value = calls
            elif field == "ms":
                value = total_ns / 1e6
            elif field == "self_ms":
                value = self_ns / 1e6
            elif field == "yield":
                scanned = self.counts["matroid.circuits.scanned"]
                value = self.counts["matroid.circuits.found"] / scanned if scanned else 0.0
            else:
                value = self.counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out
