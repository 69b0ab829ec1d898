"""Layer tracing from outside the package, for the traced run only.

`Tracer.install()` replaces each public function and public method of the
eight `warpcurv` modules, wherever a module binds it, and the scipy names
the engines call, with a wrapper that records a span: name, start, end,
parent span and op id.  `uninstall()` puts the originals back.  Spans are
kept in compact arrays and written as JSONL at the end of the run.

A span's self time is its duration minus the time its child spans cover;
scipy spans count toward the layer that called them.
"""

import functools
import inspect
import json
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("model", "spaces", "comparison", "warped", "convexity", "constructions",
          "certify", "cli")
SPARSE_BUILDERS = ("coo_matrix", "csr_matrix", "coo_array", "csr_array")
_NONE = object()


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []          # frames: [span id, layer, child time, tag]
        self.op_id = -1
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.acc = defaultdict(float)
        self.peak = defaultdict(float)
        self.product_ids = set()
        self._patches = []
        self._hooks = _hooks()

    # ------------------------------------------------------------ spans

    def _open(self, idx, layer, tag=None):
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(idx)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        frame = [sid, layer, 0.0, tag]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        t1 = time.perf_counter()
        self.stack.pop()
        sid = frame[0]
        self.end[sid] = t1
        dur = t1 - self.start[sid]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        layer = frame[1]
        if layer == "scipy" and parent is not None:
            layer = parent[1]
        self.self_s[layer] += dur - frame[2]
        return dur

    def _intern(self, qual):
        if qual not in self.name_ids:
            self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self.name_ids[qual]

    def op_span(self, op_id, family):
        """Context for one op: the root span every layer span hangs from."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op_id = op_id
                self.frame = tracer._open(tracer._intern("bench.op:" + family), "bench")

            def __exit__(self, *exc):
                tracer._close(self.frame)
                tracer.op_id = -1
        return _Op()

    def layer_of_ancestor(self, tags=None):
        """Nearest enclosing non-scipy layer, or the nearest frame with a tag."""
        for frame in reversed(self.stack):
            if tags is not None:
                if frame[3] in tags:
                    return frame[3]
            elif frame[1] != "scipy":
                return frame[1]
        return None

    def _wrap(self, fn, layer, qual):
        idx = self._intern(qual)
        hook = self._hooks.get(qual)
        if hook is None and qual.endswith(".dist_pairs"):
            hook = self._hooks[".dist_pairs"]
        enter = getattr(hook, "enter", None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            frame = tracer._open(idx, layer, enter(a, k) if enter else None)
            res = exc = _NONE
            try:
                res = fn(*a, **k)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = tracer._close(frame)
                tracer.calls[qual] += 1
                tracer.total[qual] += dur
                if hook is not None:
                    hook(tracer, a, res, exc, dur, frame)
        return wrapper

    # ------------------------------------------------------------ patching

    def install(self):
        import importlib
        import scipy.sparse
        import scipy.sparse.csgraph
        mods = {name: importlib.import_module("warpcurv." + name) for name in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("warpcurv")]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(obj, layer, "%s.%s" % (layer, attr))
                    for ns in namespaces:
                        for a2, o2 in list(vars(ns).items()):
                            if o2 is obj:
                                self._set(ns, a2, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        warped = mods["warped"]
        for attr in ("dijkstra", "minimize", "coo_matrix"):
            self._set(warped, attr, self._wrap(getattr(warped, attr), "scipy", "warped." + attr))
        csg = scipy.sparse.csgraph
        self._set(csg, "dijkstra", self._wrap(csg.dijkstra, "scipy", "csgraph.dijkstra"))
        for attr in SPARSE_BUILDERS:
            if hasattr(scipy.sparse, attr):
                self._set(scipy.sparse, attr, self._wrap(getattr(scipy.sparse, attr), "scipy",
                                                         "sparse." + attr))

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, attr)
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, layer, qual))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, layer, qual)))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ output

    def write_jsonl(self, path, families):
        """One header line, then one span per line as a compact array."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_us", "end_us", "parent", "op"],
                                 "op_families": families}) + "\n")
            for sid in range(len(self.start)):
                fh.write('[%d,"%s",%.3f,%.3f,%d,%d]\n' % (
                    sid, self.names[self.name[sid]], 1e6 * (self.start[sid] - t0),
                    1e6 * (self.end[sid] - t0), self.parent[sid], self.op[sid]))

    def metrics(self, wall_s):
        """Per-layer metrics {name: (value, unit)} over everything traced."""
        c, t, acc = self.calls, self.total, self.acc

        def div(a, b):
            return a / b if b else 0.0
        q1d = acc["warped.queries"]
        query_s = acc["warped.query_s"]
        polish_s = acc["warped.polish_s"]
        m = {
            "model.angle_calls": (c["model.angle_from_sides"], "count"),
            "model.triangles": (acc["model.triangles"], "count"),
            "model.angle_s": (t["model.angle_from_sides"], "s"),
            "model.ns_per_triangle": (1e9 * div(t["model.angle_from_sides"],
                                                acc["model.triangles"]), "ns"),
            "comparison.quadruples": (acc["comparison.quadruples"], "count"),
            "comparison.margin_s": (acc["comparison.margin_s"], "s"),
            "comparison.pairs": (acc["comparison.pairs"], "count"),
            "comparison.dist_s": (acc["comparison.dist_s"], "s"),
            "comparison.shrink_calls": (c["comparison.shrink_witness"], "count"),
            "comparison.shrink_s": (t["comparison.shrink_witness"], "s"),
            "comparison.s_per_1e5_1plus3": (1e5 * div(t["comparison.batch_1plus3"],
                                                      acc["comparison.q_1plus3"]), "s"),
            "comparison.s_per_1e5_2plus2": (1e5 * div(t["comparison.batch_2plus2"],
                                                      acc["comparison.q_2plus2"]), "s"),
            "warped.queries": (q1d, "count"),
            "warped.query_s": (query_s, "s"),
            "warped.levels_per_query": (div(acc["warped.levels"], q1d), "count"),
            "warped.dijkstra_s": (acc["warped.dijkstra_s"], "s"),
            "warped.lattice_nodes_mean": (div(acc["warped.nodes"], acc["warped.levels"]), "count"),
            "warped.lattice_edges_mean": (div(acc["warped.edges"], acc["warped.levels"]), "count"),
            "warped.polish_calls": (c["warped.minimize"], "count"),
            "warped.polish_per_query": (div(c["warped.minimize"], q1d), "count"),
            "warped.polish_s": (polish_s, "s"),
            "warped.polish_share": (div(polish_s, query_s), "ratio"),
            "warped.polish_iters": (acc["warped.polish_iters"], "count"),
            "warped.polish_nfev": (acc["warped.polish_nfev"], "count"),
            "warped.build_s": (query_s - acc["warped.dijkstra_s"] - polish_s, "s"),
            "warped.convergence_errors": (acc["warped.convergence_errors"], "count"),
            "warped.batch_pairs_mean": (div(acc["warped.batch_pairs"],
                                            c["warped.GridWarpedOracle.dist_pairs"]), "count"),
            "warped.geodesic_s": (t["warped.warped_geodesic"], "s"),
            "warped.clairaut_drift_max": (self.peak["warped.clairaut_drift"], "1"),
            "warped.disk_queries": (acc["warped.disk_queries"], "count"),
            "warped.disk_query_s": (acc["warped.disk_query_s"], "s"),
            "convexity.kappa_F_s": (t["convexity.kappa_F"], "s"),
            "convexity.gradient_calls": (c["convexity.gradient_norm"], "count"),
            "convexity.zero_set_calls": (c["convexity.zero_set"], "count"),
            "convexity.sinusoidal_s": (t["convexity.sinusoidal_test"], "s"),
            "convexity.geodesics": (acc["convexity.geodesics"], "count"),
            "constructions.doubling_s": (t["constructions.make_doubled"], "s"),
            "constructions.cross_pairs": (acc["constructions.cross_pairs"], "count"),
            "constructions.cross_s": (t["constructions.DoubledDisk.dist_pairs"], "s"),
            "constructions.lattice_builds": (acc["constructions.lattice_builds"], "count"),
            "constructions.cross_pair_ms": (1e3 * div(t["constructions.DoubledDisk.dist_pairs"],
                                                      acc["constructions.cross_pairs"]), "ms"),
            "spaces.disk_grid_pairs": (acc["spaces.disk_grid_pairs"], "count"),
            "spaces.disk_grid_s": (acc["spaces.disk_grid_s"], "s"),
            "spaces.lattice_builds": (acc["spaces.lattice_builds"], "count"),
            "spaces.builds_per_pair": (div(acc["spaces.lattice_builds"],
                                           acc["spaces.disk_grid_pairs"]), "count"),
            "spaces.disk_pair_ms": (1e3 * div(acc["spaces.disk_grid_s"],
                                              acc["spaces.disk_grid_pairs"]), "ms"),
            "certify.calls": (c["certify.certify"], "count"),
            "certify.build_s": (t["certify.build_triple"] + t["certify.build_product"], "s"),
            "certify.conditions_s": (t["certify.certify"] - t["certify.build_triple"]
                                     - t["certify.build_product"] - acc["certify.product_s"], "s"),
            "certify.product_s": (acc["certify.product_s"], "s"),
            "certify.product_slack_max": (self.peak["certify.product_slack"], "1"),
            "cli.calls": (c["cli.main"], "count"),
            "cli.self_s": (t["cli.main"] - t["certify.certify"], "s"),
        }
        for layer in LAYERS:
            m["%s.self_s" % layer] = (self.self_s[layer], "s")
            m["%s.share" % layer] = (div(self.self_s[layer], wall_s), "ratio")
        m["trace.spans"] = (len(self.start), "count")
        return {k: (float(v), u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------- hooks

def _size(x):
    try:
        return int(x.size)
    except AttributeError:
        return 1 if x is not _NONE else 0


def _hooks():
    """qual name -> hook(tracer, args, result, exc, duration, frame)."""
    h = {}

    def angle(tr, a, res, exc, dur, frame):
        tr.acc["model.triangles"] += _size(res)
    h["model.angle_from_sides"] = angle

    def batch(kind):
        def hook(tr, a, res, exc, dur, frame):
            tr.acc["comparison.quadruples"] += _size(res)
            tr.acc["comparison.q_" + kind] += _size(res)
            tr.acc["comparison.margin_s"] += dur
        return hook
    h["comparison.batch_1plus3"] = batch("1plus3")
    h["comparison.batch_2plus2"] = batch("2plus2")

    def dist_pairs(tr, a, res, exc, dur, frame):
        if tr.layer_of_ancestor() == "comparison":
            tr.acc["comparison.pairs"] += _size(res)
            tr.acc["comparison.dist_s"] += dur
    h[".dist_pairs"] = dist_pairs    # default for every oracle's dist_pairs

    def grid_pairs(tr, a, res, exc, dur, frame):
        dist_pairs(tr, a, res, exc, dur, frame)
        tr.acc["warped.batch_pairs"] += _size(res)
    h["warped.GridWarpedOracle.dist_pairs"] = grid_pairs

    def disk_pairs(tr, a, res, exc, dur, frame):
        dist_pairs(tr, a, res, exc, dur, frame)
        if not a[0].convex:
            tr.acc["spaces.disk_grid_pairs"] += _size(res)
            tr.acc["spaces.disk_grid_s"] += dur
    h["spaces.ModelDisk.dist_pairs"] = disk_pairs

    def doubled_pairs(tr, a, res, exc, dur, frame):
        dist_pairs(tr, a, res, exc, dur, frame)
        xs, ys = a[0]._batch(a[1]), a[0]._batch(a[2])
        tr.acc["constructions.cross_pairs"] += int(sum(
            round(x[0]) != round(y[0]) for x, y in zip(xs, ys)))
    h["constructions.DoubledDisk.dist_pairs"] = doubled_pairs

    def query(tr, a, res, exc, dur, frame):
        kind = frame[3]
        if kind == "disk":
            tr.acc["warped.disk_queries"] += 1
            tr.acc["warped.disk_query_s"] += dur
        else:
            tr.acc["warped.queries"] += 1
            tr.acc["warped.query_s"] += dur
        if exc is not _NONE and type(exc).__name__ == "ConvergenceError":
            tr.acc["warped.convergence_errors"] += 1
    query.enter = lambda a, k: "disk" if type(a[0].base).__name__ == "ModelDisk" else "1d"
    h["warped.reduced_distance"] = query

    def dijkstra(tr, a, res, exc, dur, frame):
        if tr.layer_of_ancestor(tags=("1d", "disk")) == "1d":
            tr.acc["warped.levels"] += 1
            tr.acc["warped.dijkstra_s"] += dur
            tr.acc["warped.nodes"] += a[0].shape[0]
            tr.acc["warped.edges"] += a[0].nnz
    h["warped.dijkstra"] = dijkstra

    def minimize(tr, a, res, exc, dur, frame):
        tr.acc["warped.polish_s"] += dur
        if res is not _NONE:
            tr.acc["warped.polish_iters"] += res.nit
            tr.acc["warped.polish_nfev"] += res.nfev
    h["warped.minimize"] = minimize

    def sparse_build(tr, a, res, exc, dur, frame):
        layer = tr.layer_of_ancestor()
        if layer in ("spaces", "constructions", "warped"):
            tr.acc[layer + ".lattice_builds"] += 1
    for name in SPARSE_BUILDERS:
        h["sparse." + name] = sparse_build
    h["warped.coo_matrix"] = sparse_build

    def clairaut(tr, a, res, exc, dur, frame):
        if res is not _NONE and math.isfinite(res.max_drift):
            tr.peak["warped.clairaut_drift"] = max(tr.peak["warped.clairaut_drift"], res.max_drift)
    h["warped.clairaut_check"] = clairaut

    def sinusoidal(tr, a, res, exc, dur, frame):
        if res is not _NONE:
            tr.acc["convexity.geodesics"] += res.geodesics_tested
    h["convexity.sinusoidal_test"] = sinusoidal

    def build_product(tr, a, res, exc, dur, frame):
        if res is not _NONE:
            tr.product_ids = {id(res)}
    h["certify.build_product"] = build_product

    def sample(tr, a, res, exc, dur, frame):
        if id(a[0]) in tr.product_ids:
            tr.acc["certify.product_s"] += dur
    h["comparison.sample_comparisons"] = sample

    def slack(tr, a, res, exc, dur, frame):
        if res is not _NONE:
            tr.peak["certify.product_slack"] = max(tr.peak["certify.product_slack"], res)
    h["certify.product_slack"] = slack
    return h
