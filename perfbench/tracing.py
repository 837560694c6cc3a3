"""Spans around the library calls that ``run_study`` and ``cmd_infsup`` make.

The wrappers are installed from outside the program: each public function
is replaced, in the namespace it is called from, by a wrapper that records
a span (name, start, end, parent span, refinement level).  Spans stay in
memory until the run ends.  Quadrature rules are counted, not timed: there
are tens of thousands of them per study.
"""

import functools
import resource
import time

# span name -> (module, attribute) pairs the name is looked up through
SPANS = {
    "cases.get_case": [("wgstokes.cases", "get_case"), ("wgstokes.study", "get_case")],
    "mesh.generate_mesh": [("wgstokes.study", "generate_mesh"), ("wgstokes.cli", "generate_mesh")],
    "weakops.element_ops": [("wgstokes.study", "ElementOps"), ("wgstokes.cli", "ElementOps")],
    "assembly.assemble": [("wgstokes.study", "assemble"), ("wgstokes.cli", "assemble")],
    "solver.solve": [("wgstokes.study", "solve")],
    "analysis.error_bundle": [("wgstokes.study", "error_bundle")],
    "analysis.discrete_inf_sup": [
        ("wgstokes.study", "discrete_inf_sup"),
        ("wgstokes.cli", "discrete_inf_sup"),
    ],
}
# quadrature builders whose rules are counted (point totals)
RULE_BUILDERS = [("wgstokes.weakops", "polygon_rule"), ("wgstokes.weakops", "edge_rule")]
# spans whose rise of the process's peak resident memory is recorded
RSS_SPANS = ("solver.solve", "analysis.discrete_inf_sup")
# each refinement level starts with its mesh
LEVEL_START = "mesh.generate_mesh"


def peak_rss_mb():
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus the counters taken at the same calls."""

    def __init__(self):
        self.spans = []
        self.level = -1
        self.quadrature_points = 0
        self.nnz = 0
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == LEVEL_START:
                self.level += 1
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "level": self.level,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = peak_rss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name in RSS_SPANS:
                span["rss_rise_mb"] = peak_rss_mb() - rss0
            if name == "assembly.assemble":
                span["nnz"] = int(result.A.nnz + result.B.nnz)
                self.nnz += span["nnz"]
            return result

        return traced

    def count_rule(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rule = fn(*args, **kwargs)
            self.quadrature_points += len(rule.weights)
            return rule

        return counted

    def install(self, modules):
        """Replace the traced names in ``modules`` (a name -> module mapping)."""
        for name, sites in SPANS.items():
            for module, attr in sites:
                mod = modules[module]
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, attr in RULE_BUILDERS:
            mod = modules[module]
            setattr(mod, attr, self.count_rule(getattr(mod, attr)))

    def layer_metrics(self, run_start, run_end):
        """Per-layer totals over all levels.

        ``cases.get_case_s`` is the set-up's call (before ``run_start``); the
        run's own call is a cache hit and falls in ``other_s``, which is the
        part of the run outside every other top-level span.  So the run's
        layer times plus ``other_s`` add up to its wall time.
        """
        totals = {name: 0.0 for name in SPANS}
        rss = {name: 0.0 for name in RSS_SPANS}
        inside = 0.0
        for span in self.spans:
            took = span["end"] - span["start"]
            in_run = span["start"] >= run_start
            if span["name"] == "cases.get_case":
                totals["cases.get_case"] += 0.0 if in_run else took
                continue
            totals[span["name"]] += took
            if span["name"] in rss:
                rss[span["name"]] += span["rss_rise_mb"]
            if span["parent"] is None and in_run:
                inside += took
        return {
            "cases.get_case_s": totals["cases.get_case"],
            "mesh.generate_mesh_s": totals["mesh.generate_mesh"],
            "weakops.element_ops_s": totals["weakops.element_ops"],
            "quadrature.points": self.quadrature_points,
            "assembly.assemble_s": totals["assembly.assemble"],
            "assembly.nnz": self.nnz,
            "solver.solve_s": totals["solver.solve"],
            "solver.rss_rise_mb": rss["solver.solve"],
            "analysis.error_bundle_s": totals["analysis.error_bundle"],
            "analysis.discrete_inf_sup_s": totals["analysis.discrete_inf_sup"],
            "analysis.inf_sup_rss_rise_mb": rss["analysis.discrete_inf_sup"],
            "other_s": run_end - run_start - inside,
        }
