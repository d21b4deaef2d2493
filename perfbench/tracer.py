"""Layer tracing from outside the program: wrappers at toricsyz module boundaries.

Each traced function gets a wrapper that records one span (name, parent span,
enter, start, end, exit) in flat in-memory arrays and updates work counts from
its arguments and return value. A wrapper is installed on the defining module
or class and on every other toricsyz module that imported the same function by
name, so calls through either binding are seen. Spans are written out once, at
the end of the pass, and aggregated by the parent process.

Times: a span's self time is end - start minus the exit - enter of its child
spans. trace.untracked_s is measured on its own terms: the command time outside
the root (cli.main) spans, plus the time every wrapper spends outside its
start..end (bookkeeping and counting). The layer self times plus
trace.untracked_s then give the traced solve time by construction; what makes
the split mean something is that the spans nest (each span lies inside its
parent's start..end, root spans do not overlap), which layer_metrics checks,
and that trace.untracked_s stays a small share of the solve time, which
selftest.py checks: a command step no wrapper covers would land there.
"""
from __future__ import annotations

import functools
import importlib
import weakref
from array import array
from time import perf_counter

LAYERS = ("cli", "serialize", "resolution", "complexes", "homology", "semigroup")

# Self time of these spans is reported on its own, as "<span>_s"; all spans
# add to their layer's self_s. Cheap helpers that are not listed here (monomial
# arithmetic, Semigroup.degree_of, poly_* and chain_* helpers) run inside
# their caller's span and count as the caller's self time.
REPORTED_SPANS = (
    "semigroup.fiber", "semigroup.member", "semigroup.certificate",
    "complexes.nabla", "complexes.faces", "complexes.delta",
    "homology.gauss", "homology.basis", "homology.express", "homology.boundary",
    "homology.cache_store", "homology.cache_load",
    "serialize.encode", "serialize.verify",
)

COUNTS = (
    "semigroup.fiber_calls", "semigroup.fiber_monomials", "semigroup.fiber_repeats",
    "semigroup.member_calls", "semigroup.certificate_calls",
    "complexes.nabla_builds", "complexes.faces_calls", "complexes.faces_returned",
    "complexes.delta_builds",
    "homology.gauss_calls", "homology.gauss_cells", "homology.gauss_nnz_in",
    "homology.gauss_rank", "homology.gauss_max_cols", "homology.gauss_bookkeeping_cells",
    "homology.basis_calls", "homology.homology_reps", "homology.express_calls",
    "homology.boundary_cells", "homology.cache_store_calls", "homology.cache_load_calls",
    "homology.cache_load_hits",
)


def _count_fiber(tracer, args, kwargs, result):
    c = tracer.counts
    c["semigroup.fiber_calls"] += 1
    c["semigroup.fiber_monomials"] += len(result)
    sg, m, order = args[0], tuple(args[1]), args[2]
    seen = tracer.fibers_seen.setdefault(sg, set())
    key = (m, order.kind)
    if key in seen:
        c["semigroup.fiber_repeats"] += 1
    seen.add(key)


def _count_gauss(tracer, args, kwargs, result):
    c = tracer.counts
    rows, ncols = args[0], args[1]
    m = len(rows)
    c["homology.gauss_calls"] += 1
    c["homology.gauss_cells"] += m * ncols
    c["homology.gauss_nnz_in"] += sum(len(row) - row.count(0) for row in rows)
    c["homology.gauss_rank"] += result.rank
    c["homology.gauss_max_cols"] = max(c["homology.gauss_max_cols"], ncols)
    # gauss_reduce keeps P^-1 (m x m) and Q (n x n) as dense lists
    c["homology.gauss_bookkeeping_cells"] += m * m + ncols * ncols


def _count_boundary(tracer, args, kwargs, result):
    rows, cols = result.shape
    tracer.counts["homology.boundary_cells"] += rows * cols


def _count_basis(tracer, args, kwargs, result):
    tracer.counts["homology.basis_calls"] += 1
    tracer.counts["homology.homology_reps"] += len(result.homology)


def _count_faces(tracer, args, kwargs, result):
    tracer.counts["complexes.faces_calls"] += 1
    tracer.counts["complexes.faces_returned"] += len(result)


def _count_cache_load(tracer, args, kwargs, result):
    tracer.counts["homology.cache_load_calls"] += 1
    if result is not None:
        tracer.counts["homology.cache_load_hits"] += 1


def _counter(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return count


def _keep_engine(tracer, args, kwargs, result):
    tracer.engines.append(args[0])


# (module, class or None, attribute, span name, counter)
TARGETS = (
    ("toricsyz.cli", None, "main", "cli.main", None),
    ("toricsyz.serialize", None, "fragment_to_json", "serialize.encode", None),
    ("toricsyz.serialize", None, "decomposition_to_json", "serialize.encode", None),
    ("toricsyz.serialize", None, "decomposition_text", "serialize.encode", None),
    ("toricsyz.serialize", None, "dumps", "serialize.encode", None),
    ("toricsyz.serialize", None, "verify_fragment_json", "serialize.verify", None),
    ("toricsyz.resolution", "ResolutionEngine", "__init__", "resolution.engine", _keep_engine),
    ("toricsyz.resolution", "ResolutionEngine", "harvest", "resolution.harvest", None),
    ("toricsyz.resolution", "ResolutionEngine", "minimalize_binomial",
     "resolution.minimalize", None),
    ("toricsyz.resolution", "ResolutionEngine", "minimalize_syzygy",
     "resolution.minimalize", None),
    ("toricsyz.resolution", "ResolutionEngine", "multigraded_betti", "resolution.betti", None),
    ("toricsyz.resolution", "ResolutionEngine", "betti_delta", "resolution.betti", None),
    ("toricsyz.resolution", "ResolutionEngine", "verify_fragment", "resolution.verify", None),
    ("toricsyz.complexes", None, "build_nabla", "complexes.nabla",
     _counter("complexes.nabla_builds")),
    ("toricsyz.complexes", None, "build_delta", "complexes.delta",
     _counter("complexes.delta_builds")),
    ("toricsyz.complexes", "NablaComplex", "faces_of_dim", "complexes.faces", _count_faces),
    ("toricsyz.complexes", "DeltaComplex", "faces_of_dim", "complexes.faces", _count_faces),
    ("toricsyz.homology", None, "gauss_reduce", "homology.gauss", _count_gauss),
    ("toricsyz.homology", None, "boundary_matrix", "homology.boundary", _count_boundary),
    ("toricsyz.homology", None, "fixed_cycle_basis", "homology.basis", _count_basis),
    ("toricsyz.homology", None, "betti_reduced", "homology.betti", None),
    ("toricsyz.homology", "ChainBasis", "express", "homology.express",
     _counter("homology.express_calls")),
    ("toricsyz.homology", None, "basis_cache_key", "homology.cache_key", None),
    ("toricsyz.homology", None, "load_cached_basis", "homology.cache_load", _count_cache_load),
    ("toricsyz.homology", None, "store_cached_basis", "homology.cache_store",
     _counter("homology.cache_store_calls")),
    ("toricsyz.semigroup", "Semigroup", "__init__", "semigroup.init", None),
    ("toricsyz.semigroup", "Semigroup", "_positive_grading", "semigroup.certificate",
     _counter("semigroup.certificate_calls")),
    ("toricsyz.semigroup", "Semigroup", "fiber", "semigroup.fiber", _count_fiber),
    ("toricsyz.semigroup", "Semigroup", "member", "semigroup.member",
     _counter("semigroup.member_calls")),
    ("toricsyz.semigroup", "Semigroup", "degrees_up_to", "semigroup.degrees", None),
)

MODULES = ("toricsyz", "toricsyz.cli", "toricsyz.serialize", "toricsyz.resolution",
           "toricsyz.complexes", "toricsyz.homology", "toricsyz.semigroup")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name_ids = {}  # span name -> id, in id order
        self.name = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.exit = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fibers_seen = weakref.WeakKeyDictionary()
        self.engines = []
        self.commands = []
        self._installed = []

    def _wrap(self, fn, span_name, count):
        name_id = self.name_ids.setdefault(span_name, len(self.name_ids))
        names, parents = self.name, self.parent
        enters, starts, ends, exits = self.enter, self.start, self.end, self.exit
        stack = self.stack

        def traced(*args, **kwargs):
            t_enter = perf_counter()
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            enters.append(t_enter)
            starts.append(0.0)
            ends.append(0.0)
            exits.append(0.0)
            stack.append(idx)
            t_start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = perf_counter()
                stack.pop()
                starts[idx] = t_start
                ends[idx] = t_end
                exits[idx] = t_end
            if count is not None:
                count(self, args, kwargs, result)
            exits[idx] = perf_counter()
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target, on its owner and on each module that imported it."""
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, class_name, attr, span_name, count in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span_name, count)
            holders = [owner]
            if class_name is None:
                holders += [m for m in modules
                            if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._installed.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def begin_command(self):
        self.engines.clear()
        self.commands.append({"first_span": len(self.name)})

    def end_command(self, cache_bytes):
        command = self.commands[-1]
        command["last_span"] = len(self.name)
        command["cache_bytes"] = cache_bytes
        command["generators"] = sum(len(e.registry.records) for e in self.engines)
        self.engines.clear()

    def write(self, path):
        """Write the spans to path; return the summary the parent needs with them.

        The summary's "commands" give, per command, the range of span indices
        it produced (first_span up to last_span), the cache bytes it wrote and
        the size of its generator registry.
        """
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.enter, self.start, self.end, self.exit):
                arr.tofile(fh)
        return {"spans": len(self.name), "names": list(self.name_ids),
                "counts": self.counts, "commands": self.commands}


def read_spans(path, n):
    """Inverse of Tracer.write: the six span arrays."""
    arrays = [array("i"), array("i"), array("d"), array("d"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return arrays


def nesting_errors(parents, enters, starts, ends, exits):
    """Spans outside their parent's start..end, plus root spans that overlap."""
    errors, last_root = 0, -1
    for i, p in enumerate(parents):
        if p >= 0:
            errors += not (starts[p] <= enters[i] and exits[i] <= ends[p])
        else:
            errors += last_root >= 0 and enters[i] < exits[last_root]
            last_root = i
    return errors


def layer_metrics(path, summary, solve_s):
    """Per-layer metrics of one traced pass from its span file and summary."""
    n = summary["spans"]
    names, parents, enters, starts, ends, exits = read_spans(path, n)
    misnested = nesting_errors(parents, enters, starts, ends, exits)
    if misnested:
        raise ValueError(f"{misnested} of {n} spans lie outside their parent"
                         " or overlap another root span")
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += exits[i] - enters[i]
    span_names = summary["names"]
    by_span = {}
    for i in range(n):
        name = span_names[names[i]]
        by_span[name] = by_span.get(name, 0.0) + (ends[i] - starts[i]) - child_time[i]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum((v for k, v in by_span.items()
                                           if k.split(".")[0] == layer), 0.0), "s")
    for name in REPORTED_SPANS:
        metrics[f"{name}_s"] = (by_span.get(name, 0.0), "s")
    counts = summary["counts"]
    for name in COUNTS:
        if name not in ("semigroup.fiber_repeats", "homology.cache_load_hits"):
            metrics[name] = (counts[name], "count")
    fibers = counts["semigroup.fiber_calls"]
    loads = counts["homology.cache_load_calls"]
    metrics["semigroup.fiber_hit_ratio"] = (
        counts["semigroup.fiber_repeats"] / fibers if fibers else 0.0, "ratio")
    metrics["homology.cache_hit_ratio"] = (
        counts["homology.cache_load_hits"] / loads if loads else 0.0, "ratio")
    commands = summary["commands"]
    metrics["homology.cache_bytes"] = (sum(c["cache_bytes"] for c in commands), "bytes")
    metrics["resolution.generators"] = (sum(c["generators"] for c in commands), "count")
    metrics["trace.spans"] = (n, "count")
    roots = sum(exits[i] - enters[i] for i in range(n) if parents[i] < 0)
    bookkeeping = sum((exits[i] - enters[i]) - (ends[i] - starts[i]) for i in range(n))
    metrics["trace.untracked_s"] = (solve_s - roots + bookkeeping, "s")
    return metrics
