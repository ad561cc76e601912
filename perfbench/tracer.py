"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces functions and methods of ``crossed_poisson`` with
wrappers.  A *span* wrapper records (name, start, end, parent span, job id)
at a layer boundary; a *count* wrapper only bumps a counter, for methods too
hot to time one by one.  A function is replaced under every module attribute
that refers to it, so names imported into another module (``pbw.act``,
``cohom.pr``) are traced there too.  A target that no longer exists is
skipped and reported, so a later refactor leaves the traced run working.

Spans are kept in flat arrays while the run lasts and written out once, at
the end.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# (target, kind, span or counter name).  A target is "module:attribute" or
# "module:Class.method"; modules are relative to the crossed_poisson package.
TARGETS = [
    ("scalars:Cyclotomic.__mul__", "cyc_mul", "scalars.cyc_mul"),
    ("scalars:Cyclotomic.__rmul__", "cyc_mul", "scalars.cyc_mul"),
    ("scalars:Cyclotomic.invert", "count", "scalars.cyc_inv"),
    ("scalars:HScalar.__mul__", "count", "scalars.hscalar_mul"),
    ("scalars:HScalar.__rmul__", "count", "scalars.hscalar_mul"),
    ("groups:generate", "span", "groups.generate"),
    ("groups:MatrixGroup.geometry", "span", "groups.geometry"),
    ("linalg:solve", "span", "linalg.solve"),
    ("linalg:rank", "span", "linalg.rank"),
    ("linalg:rref", "span", "linalg.rref"),
    ("linalg:kernel_basis", "span", "linalg.kernel_basis"),
    ("linalg:mat_inv", "span", "linalg.mat_inv"),
    ("linalg:mat_mul", "span", "linalg.mat_mul"),
    ("linalg:mat_vec", "span", "linalg.mat_vec"),
    ("linalg:extend_to_basis", "span", "linalg.extend_to_basis"),
    ("linalg:_echelon", "echelon", "linalg.echelon"),
    ("polyvec:act", "span", "polyvec.act"),
    ("polyvec:average", "span", "polyvec.average"),
    ("polyvec:pr", "span", "polyvec.pr"),
    ("polyvec:is_invariant", "span", "polyvec.is_invariant"),
    ("polyvec:is_poisson", "span", "polyvec.is_poisson"),
    ("polyvec:poisson_differential", "span", "polyvec.poisson_differential"),
    ("polyvec:koszul_differential", "span", "polyvec.koszul_differential"),
    ("polyvec:schouten", "span", "polyvec.schouten"),
    ("polyvec:gen_bracket_pi_pi", "span", "polyvec.gen_bracket_pi_pi"),
    ("polyvec:gen_bracket_b_pi", "span", "polyvec.gen_bracket_b_pi"),
    ("pbw:check_bg", "span", "pbw.check_bg"),
    ("pbw:overlap_confluence", "confluence", "pbw.overlap_confluence"),
    ("pbw:solve_b", "span", "pbw.solve_b"),
    ("pbw:DeformedAlgebra.reduce_letters", "count", "pbw.reduce_letters_calls"),
    ("cohom:TruncatedComplex.__init__", "complex", "cohom.complex"),
    ("cohom:TruncatedComplex.cohomology", "span", "cohom.cohomology"),
    ("cohom:h_truncated", "span", "cohom.h_truncated"),
    ("qmoyal:star", "span", "qmoyal.star"),
    ("qmoyal:star_power", "span", "qmoyal.star_power"),
    ("qmoyal:center_lift", "span", "qmoyal.center_lift"),
    ("qmoyal:is_central", "span", "qmoyal.is_central"),
    ("qmoyal:center_relation", "span", "qmoyal.center_relation"),
    ("cli:main", "span", "cli.main"),
    ("cli:build_parser", "span", "cli.build_parser"),
    ("cli:parse_structure_file", "span", "cli.parse_structure_file"),
    ("cli:emit_structure_file", "span", "cli.emit_structure_file"),
    ("cli:term_entries", "span", "cli.term_entries"),
]

BRACKETS = ("polyvec.gen_bracket_pi_pi", "polyvec.gen_bracket_b_pi",
            "polyvec.schouten")
DIFFERENTIALS = ("polyvec.poisson_differential", "polyvec.koszul_differential")


def _nonzero(x):
    c = getattr(x, "c", None)
    return any(c) if c is not None else bool(x)


class Tracer:
    """Spans and counters of one traced run, attributed to the current job."""

    def __init__(self):
        self.names = []            # span name ids -> names
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack = []
        self.counts = Counter()
        self.job = -1
        self.job_rows = 0          # largest elimination of the current job
        self.job_cols = 0
        self.missing = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap every target found under ``package``; record the absent ones."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        wrappers = {}
        for target, kind, name in TARGETS:
            modname, _, attr = target.partition(":")
            owner, _, meth = attr.rpartition(".")
            holder = sys.modules.get(prefix + modname)
            if owner:
                holder = getattr(holder, owner, None)
            original = vars(holder).get(meth) if holder is not None else None
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(kind, name, original)
            self._replace(holder, meth, original, wrapper)
            if not owner:
                wrappers[id(original)] = (original, wrapper)
        # names imported into other modules refer to the same function object
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, value, hit[1])

    def _replace(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._undo.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, kind, name, fn):
        tracer = self
        counts = self.counts
        if kind == "count":
            def wrapper(*args, **kwargs):
                if tracer.job >= 0:
                    counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == "cyc_mul":
            useful = name + "_useful"

            def wrapper(self_, other):
                if tracer.job >= 0:
                    counts[name] += 1
                    if _nonzero(self_) and _nonzero(other):
                        counts[useful] += 1
                return fn(self_, other)
        else:
            wrapper = self._span_wrapper(kind, name, fn)
        return functools.wraps(fn)(wrapper)

    def _span_wrapper(self, kind, name, fn):
        tracer = self
        nid = self._name_id(name)
        counts = self.counts
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            job = tracer.job
            if job < 0:  # work between jobs: drawing inputs, checking outputs
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            counts[name] += 1
            if kind == "echelon":
                rows, ncols = args[0], args[1]
                tracer.job_rows = max(tracer.job_rows, len(rows))
                tracer.job_cols = max(tracer.job_cols, ncols)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if kind == "confluence":
                counts["pbw.overlaps"] += result.overlaps_checked
            elif kind == "complex":
                counts["cohom.basis_fields"] += sum(len(b) for b in args[0].bases)
            return result

        return wrapper

    # -- per-job bookkeeping ------------------------------------------------

    def begin_job(self, job):
        self.job = job
        self.job_rows = self.job_cols = 0

    def end_job(self):
        self.counts["linalg.system_rows"] += self.job_rows
        self.counts["linalg.system_cols"] += self.job_cols
        self.job = -1

    # -- analysis ---------------------------------------------------------------

    def _spans(self):
        """Durations and self times of the spans.  Spans are appended when
        they open, so a parent always precedes its children."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def busy(self, dur, names):
        """Time inside spans of ``names`` that no other such span encloses."""
        wanted = [nm in names for nm in self.names]
        inside = bytearray(len(dur))
        total = 0.0
        for i, (nid, p) in enumerate(zip(self.span_name, self.span_parent)):
            outer = p >= 0 and inside[p]
            if wanted[nid]:
                inside[i] = 1
                if not outer:
                    total += dur[i]
            elif outer:
                inside[i] = 1
        return total

    def self_time(self, own, prefix):
        return sum(t for t, nid in zip(own, self.span_name)
                   if self.names[nid].startswith(prefix))

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")


# (metric, unit, better), as BENCHMARK.json lists them; every value is a mean
# per timed job, except the ratios
PER_LAYER = (
    ("scalars.cyc_mul", "count", "lower"),
    ("scalars.cyc_mul_useful_ratio", "ratio", "higher"),
    ("scalars.cyc_inv", "count", "lower"),
    ("scalars.hscalar_mul", "count", "lower"),
    ("groups.generate_s", "s", "lower"),
    ("groups.geometry_s", "s", "lower"),
    ("linalg.busy_s", "s", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.rank_s", "s", "lower"),
    ("linalg.eliminations", "count", "lower"),
    ("linalg.system_rows", "count", "lower"),
    ("linalg.system_cols", "count", "lower"),
    ("polyvec.bracket_s", "s", "lower"),
    ("polyvec.bracket_calls", "count", "lower"),
    ("polyvec.act_s", "s", "lower"),
    ("polyvec.act_calls", "count", "lower"),
    ("polyvec.average_s", "s", "lower"),
    ("polyvec.pr_s", "s", "lower"),
    ("polyvec.differential_s", "s", "lower"),
    ("pbw.check_bg_s", "s", "lower"),
    ("pbw.confluence_s", "s", "lower"),
    ("pbw.overlaps", "count", "lower"),
    ("pbw.reduce_letters_calls", "count", "lower"),
    ("pbw.solve_b_self_s", "s", "lower"),
    ("cohom.busy_s", "s", "lower"),
    ("cohom.self_s", "s", "lower"),
    ("cohom.basis_fields", "count", "lower"),
    ("qmoyal.star_s", "s", "lower"),
    ("qmoyal.star_calls", "count", "lower"),
    ("qmoyal.lift_s", "s", "lower"),
    ("qmoyal.mono_star_hit_ratio", "ratio", "higher"),
    ("cli.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
)

# the wrapped targets each metric is made from, for reporting absent ones
SOURCES = {
    "scalars.cyc_mul": ["scalars:Cyclotomic.__mul__"],
    "scalars.cyc_mul_useful_ratio": ["scalars:Cyclotomic.__mul__"],
    "scalars.cyc_inv": ["scalars:Cyclotomic.invert"],
    "scalars.hscalar_mul": ["scalars:HScalar.__mul__"],
    "groups.generate_s": ["groups:generate"],
    "groups.geometry_s": ["groups:MatrixGroup.geometry"],
    "linalg.solve_s": ["linalg:solve"],
    "linalg.rank_s": ["linalg:rank"],
    "linalg.eliminations": ["linalg:_echelon"],
    "linalg.system_rows": ["linalg:_echelon"],
    "linalg.system_cols": ["linalg:_echelon"],
    "polyvec.bracket_s": ["polyvec:gen_bracket_pi_pi"],
    "polyvec.bracket_calls": ["polyvec:gen_bracket_pi_pi"],
    "polyvec.act_s": ["polyvec:act"],
    "polyvec.act_calls": ["polyvec:act"],
    "polyvec.average_s": ["polyvec:average"],
    "polyvec.pr_s": ["polyvec:pr"],
    "polyvec.differential_s": ["polyvec:poisson_differential"],
    "pbw.check_bg_s": ["pbw:check_bg"],
    "pbw.confluence_s": ["pbw:overlap_confluence"],
    "pbw.overlaps": ["pbw:overlap_confluence"],
    "pbw.reduce_letters_calls": ["pbw:DeformedAlgebra.reduce_letters"],
    "pbw.solve_b_self_s": ["pbw:solve_b"],
    "cohom.basis_fields": ["cohom:TruncatedComplex.__init__"],
    "qmoyal.star_s": ["qmoyal:star"],
    "qmoyal.star_calls": ["qmoyal:star"],
    "qmoyal.lift_s": ["qmoyal:center_lift"],
    "cli.parse_s": ["cli:parse_structure_file"],
    "cli.self_s": ["cli:main"],
}


def per_layer(tracer, jobs, output_bytes, cache):
    """Per-layer metrics of a traced run, and the (metric, reason) pairs of
    those that could not be measured."""
    c = tracer.counts
    dur, own = tracer._spans()

    def busy(*names):
        return tracer.busy(dur, set(names))

    def ratio(num, den):
        return num / den if den else None

    hits = misses = 0
    if cache[0] is not None:
        hits = cache[1].hits - cache[0].hits
        misses = cache[1].misses - cache[0].misses
    raw = {
        "scalars.cyc_mul": c["scalars.cyc_mul"],
        "scalars.cyc_inv": c["scalars.cyc_inv"],
        "scalars.hscalar_mul": c["scalars.hscalar_mul"],
        "groups.generate_s": busy("groups.generate"),
        "groups.geometry_s": busy("groups.geometry"),
        "linalg.busy_s": busy(*[n for n in tracer.names if n.startswith("linalg.")]),
        "linalg.solve_s": busy("linalg.solve"),
        "linalg.rank_s": busy("linalg.rank"),
        "linalg.eliminations": c["linalg.echelon"],
        "linalg.system_rows": c["linalg.system_rows"],
        "linalg.system_cols": c["linalg.system_cols"],
        "polyvec.bracket_s": busy(*BRACKETS),
        "polyvec.bracket_calls": sum(c[n] for n in BRACKETS),
        "polyvec.act_s": busy("polyvec.act"),
        "polyvec.act_calls": c["polyvec.act"],
        "polyvec.average_s": busy("polyvec.average"),
        "polyvec.pr_s": busy("polyvec.pr"),
        "polyvec.differential_s": busy(*DIFFERENTIALS),
        "pbw.check_bg_s": busy("pbw.check_bg"),
        "pbw.confluence_s": busy("pbw.overlap_confluence"),
        "pbw.overlaps": c["pbw.overlaps"],
        "pbw.reduce_letters_calls": c["pbw.reduce_letters_calls"],
        "pbw.solve_b_self_s": tracer.self_time(own, "pbw.solve_b"),
        "cohom.busy_s": busy(*[n for n in tracer.names if n.startswith("cohom.")]),
        "cohom.self_s": tracer.self_time(own, "cohom."),
        "cohom.basis_fields": c["cohom.basis_fields"],
        "qmoyal.star_s": busy("qmoyal.star"),
        "qmoyal.star_calls": c["qmoyal.star"],
        "qmoyal.lift_s": busy("qmoyal.center_lift"),
        "cli.parse_s": busy("cli.build_parser", "cli.parse_structure_file"),
        "cli.self_s": tracer.self_time(own, "cli."),
        "cli.output_bytes": output_bytes,
    }
    ratios = {
        "scalars.cyc_mul_useful_ratio": (
            ratio(c["scalars.cyc_mul_useful"], c["scalars.cyc_mul"]),
            "no Cyclotomic products in this workload"),
        "qmoyal.mono_star_hit_ratio": (
            ratio(hits, hits + misses),
            "no _mono_star lookups in this workload"
            if cache[0] is not None else "qmoyal._mono_star has no cache_info"),
    }
    metrics, absent = {}, []
    for name, unit, _better in PER_LAYER:
        gone = [t for t in SOURCES.get(name, ()) if t in tracer.missing]
        if name in ratios:
            value, reason = ratios[name]
            if value is None:
                absent.append((name, reason))
                value = 0.0
        else:
            value = raw[name] / jobs
        if gone:
            absent.append((name, "not found: " + ", ".join(gone)))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
