"""Per-layer tracing of selfsim from outside the library.

`Tracer.install()` wraps the public entry points listed in ENTRY_POINTS and
rebinds every module-level name that refers to a wrapped function (for
example `closure.reduce_mod_r` as well as `adic.reduce_mod_r`), so calls
between the library's own modules are seen too.  Each wrapped call is one
span (id, name, start, end, parent id, op id); its self time is its
duration minus the time covered by its child spans.  Spans stay in memory
(up to SPAN_CAP; the rest are only counted) and are written out by the
caller when the run ends.
"""

import functools
import importlib
import json
import time

LAYERS = ("adic", "intlin", "tree", "closure", "endo", "suites", "cli")

# (module, attribute path, metric name); "calls-only" entries get no self_s
ENTRY_POINTS = (
    ("tree", "Permutation.__mul__", "tree.Permutation.mul"),
    ("tree", "Permutation.order", "tree.Permutation.order"),
    ("tree", "Portrait.make", "tree.Portrait.make"),
    ("tree", "Portrait.__mul__", "tree.Portrait.mul"),
    ("tree", "Portrait.inverse", "tree.Portrait.inverse"),
    ("tree", "Portrait.level_perm", "tree.Portrait.level_perm"),
    ("tree", "AutExpr.decompose", "tree.AutExpr.decompose"),
    ("tree", "AutExpr.portrait", "tree.AutExpr.portrait"),
    ("tree", "AutExpr.is_identity", "tree.AutExpr.is_identity"),
    ("tree", "AutExpr.pow_series", "tree.AutExpr.pow_series"),
    ("tree", "FoldSystem.level_perm_fast", "tree.FoldSystem.level_perm_fast"),
    ("tree", "FoldSystem.annihilator", "tree.FoldSystem.annihilator"),
    ("adic", "reduce_mod_r", "adic.reduce_mod_r"),
    ("adic", "relator_parts", "adic.relator_parts"),
    ("adic", "PowerSeries.__init__", "adic.PowerSeries.new"),
    ("adic", "PowerSeries.__mul__", "adic.PowerSeries.mul"),
    ("closure", "state_closure", "closure.state_closure"),
    ("closure", "peel", "closure.peel"),
    ("closure", "order_to_depth", "closure.order_to_depth"),
    ("closure", "extract_relations", "closure.extract_relations"),
    ("closure", "zeta", "closure.zeta"),
    ("endo", "adding_machine_conjugator", "endo.adding_machine_conjugator"),
    ("endo", "closed_form_conjugator", "endo.closed_form_conjugator"),
    ("endo", "phi_rep", "endo.phi_rep"),
    ("intlin", "solve_left", "intlin.solve_left"),
    ("intlin", "lattice_index", "intlin.lattice_index"),
    ("intlin", "left_kernel", "intlin.left_kernel"),
    ("suites", "run_suite", "suites.run_suite"),
    ("cli", "parse_script", "cli.parse_script"),
    ("cli", "Session.execute", "cli.Session.execute"),
    ("cli", "main", "cli.main"),
)
CALLS_ONLY = ("tree.FoldSystem.annihilator",)
MAKE = "tree.Portrait.make"
SPAN_CAP = 200000


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for _, _, name in ENTRY_POINTS:
        units[name + ".calls"] = "count"
        if name not in CALLS_ONLY:
            units[name + ".self_s"] = "s"
        if name == MAKE:
            units[name + ".new_ratio"] = "1"
    units.update((layer + ".self_s", "s") for layer in LAYERS)
    return units


class Tracer(object):
    """Installs span-recording wrappers and accumulates per-name totals."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for _, _, name in ENTRY_POINTS}
        self.spans = []
        self.dropped = 0
        self.op_id = None
        self._stack = []    # frames [span id, time covered by child spans]
        self._next_id = 0
        self._made = set()  # ids of nodes returned by Portrait.make
        self._undo = []

    # -- recording

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is not None:
            stat[0] += 1
            stat[1] += duration - frame[1]
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        clock = time.perf_counter
        enter = self._enter
        leave = self._leave
        made = self._made if name == MAKE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, start, clock())
            if made is not None:
                made.add(id(result))
            return result
        return wrapper

    def op(self, op_id, kind, fn):
        """Run one benchmark operation as a root span named op.<kind>."""
        self.op_id = op_id
        frame = self._enter()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._leave("op." + kind, frame, start, time.perf_counter())
            self.op_id = None

    # -- installation

    def install(self, extra_namespaces=()):
        """Wrap every entry point and rebind every name that refers to one."""
        package = importlib.import_module("selfsim")
        modules = [package] + [importlib.import_module("selfsim." + layer)
                               for layer in LAYERS]
        namespaces = modules + list(extra_namespaces)
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module("selfsim." + module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            raw = getattr(owner, attr)
            new = self._wrap(name, raw)
            for space in namespaces:
                for key, value in list(vars(space).items()):
                    if value is raw:
                        self._undo.append((space, key, raw))
                        setattr(space, key, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # -- results

    def metrics(self):
        """Per-layer metrics by name (see metric_units)."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for _, _, name in ENTRY_POINTS:
            calls, self_s = self.stats[name]
            out[name + ".calls"] = calls
            if name not in CALLS_ONLY:
                out[name + ".self_s"] = self_s
                layer_self[name.split(".")[0]] += self_s
            if name == MAKE:
                out[name + ".new_ratio"] = (len(self._made) / calls
                                            if calls else 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "op"],
                       "dropped": self.dropped, "spans": self.spans},
                      handle)
