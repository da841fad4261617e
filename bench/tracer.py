"""Layer timing from outside the program: wrap toeplab's public functions.

``Tracer.install`` replaces each listed function in *every* toeplab module
namespace that binds it (``toric`` binds ``enumerate_fiber`` through
``from .multiindex import ...``, so patching only the home module would
miss those calls).  Each wrapped call opens a span with a parent link;
spans stay in memory and ``dump`` returns them when the pass ends.  A
span's self time is its duration minus the time of the calls it made to
other wrapped functions.  Per-element functions (``invariant_eigenvalue``,
``EquivariantSpectrum.eigenvalue_of``) are aggregated, count and total
time, instead of getting a span each.

Counts labelled *computed* are derived from public inputs and results,
never timed: box points from ``fiber_polytope_vertices`` bounds, dense
bytes 16 * dim^2 of a complex matrix, eigensolve flops 16/3 * dim^3 (the
Hermitian tridiagonal reduction that dominates a values-only ``eigvalsh``)
and matrix-product flops 8 * dim^3 per complex product.  The sampler's
acceptance ratio is the points kept over the points drawn: inside
``theorem2_leading`` every ``InvariantSymbol.eval_array`` call is one batch
of ``batch_size`` draws, evaluated on the points kept from it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from math import floor, prod
from pathlib import Path

# (module, function) pairs timed as spans; the metric name is "module.function".
SPANS = [
    ("multiindex", "enumerate_degree"),
    ("multiindex", "enumerate_fiber"),
    ("multiindex", "fiber_polytope_vertices"),
    ("hardy_sphere", "assemble_block"),
    ("spectral", "measure_eigen"),
    ("spectral", "measure_poly"),
    ("spectral", "fit_expansion"),
    ("spectral", "richardson_limit"),
    ("toric", "equivariant_spectrum"),
    ("toric", "fiber_measure"),
    ("toric", "fiber_volume"),
    ("toric", "regular_free_check"),
    ("toric", "theorem2_leading"),
    ("reduction", "c0_sphere_mc"),
    ("inverse", "reconstruct"),
    ("inverse", "spectral_distinguishability"),
    ("canonical_model", "check_isometry"),
    ("cli", "main"),
]


class Tracer:
    """Spans, aggregates and work counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, op, parent, start, end, child_s]
        self.stack: list[int] = []
        self.aggregates: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.fiber_calls: Counter = Counter()
        self.op: str | None = None
        self._sampler_batch = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import toeplab
        from toeplab.hardy_sphere import InvariantSymbol
        from toeplab.toric import EquivariantSpectrum, theorem2_leading

        modules = [m for name, m in sys.modules.items() if name == "toeplab" or name.startswith("toeplab.")]
        for mod_name, fn_name in SPANS:
            orig = getattr(getattr(toeplab, mod_name), fn_name)
            after = getattr(self, f"_after_{fn_name}", None)
            self._rebind(modules, orig, self._span_wrapper(f"{mod_name}.{fn_name}", orig, after))
        orig = toeplab.hardy_sphere.invariant_eigenvalue
        self._rebind(modules, orig, self._aggregate_wrapper("hardy_sphere.invariant_eigenvalue", orig))
        EquivariantSpectrum.eigenvalue_of = self._aggregate_wrapper(
            "toric.eigenvalue_of", EquivariantSpectrum.eigenvalue_of)
        self._sampler_batch = inspect.signature(theorem2_leading).parameters["batch_size"].default
        eval_array = InvariantSymbol.eval_array

        def counted_eval_array(symbol, pts):
            if any(self.spans[i][0] == "toric.theorem2_leading" for i in self.stack):
                self.counts["toric.sampler_batches"] += 1
                self.counts["toric.sampler_kept"] += len(pts)
            return eval_array(symbol, pts)

        InvariantSymbol.eval_array = counted_eval_array

    @staticmethod
    def _rebind(modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, name, orig, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, self.op, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[4] - span[3]
            if after is not None:
                after(orig, args, kwargs, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, name, orig):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        agg = self.aggregates.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][5] += dt

        return wrapper

    # -- work counts read from arguments and results ---------------------

    def _maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    @staticmethod
    def _bound(orig, args, kwargs) -> dict:
        bound = inspect.signature(orig).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_enumerate_fiber(self, orig, args, kwargs, result):
        a = self._bound(orig, args, kwargs)
        self.counts["multiindex.fiber_points"] += len(result)
        self.fiber_calls[(a["sub"], a["k"])] += 1

    def _after_assemble_block(self, orig, args, kwargs, result):
        self.counts["hardy_sphere.block_dim_sum"] += result.dim
        self._maximum("hardy_sphere.dense_bytes_max", 16 * result.dim ** 2)

    def _after_measure_eigen(self, orig, args, kwargs, result):
        self.counts["spectral.eig_flop"] += 16 * self._bound(orig, args, kwargs)["block"].dim ** 3 // 3

    def _after_measure_poly(self, orig, args, kwargs, result):
        a = self._bound(orig, args, kwargs)
        self.counts["spectral.matmul_flop"] += 8 * a["block"].dim ** 3 * max(0, a["f"].degree - 1)

    def _after_fit_expansion(self, orig, args, kwargs, result):
        self._maximum("spectral.fit_condition_max", result.condition)

    def _after_c0_sphere_mc(self, orig, args, kwargs, result):
        self.counts["reduction.mc_samples"] += self._bound(orig, args, kwargs)["samples"]

    def _after_reconstruct(self, orig, args, kwargs, result):
        self.counts["inverse.rays"] += len(result.rays)

    def _after_spectral_distinguishability(self, orig, args, kwargs, result):
        found = (result.first_labeled_difference, result.first_multiset_difference)
        self.counts["inverse.levels_compared"] += max(found) if None not in found else result.k_max

    def _after_check_isometry(self, orig, args, kwargs, result):
        self.counts["canonical_model.grid_points"] += result.grid_points
        self._maximum("canonical_model.dense_bytes_max", 16 * result.grid_points ** 2)

    def _after_main(self, orig, args, kwargs, result):
        argv = self._bound(orig, args, kwargs)["argv"]
        out = Path(argv[argv.index("--out") + 1])
        self.counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        self.counts["cli.exit_nonzero"] += int(result != 0)

    # -- results ---------------------------------------------------------

    def box_points(self) -> int:
        """Computed: points of the bounding boxes enumerate_fiber walks, over all its calls.

        Evaluated after the pass so the extra vertex enumeration is not timed.
        """
        from toeplab.multiindex import fiber_polytope_vertices

        total = 0
        for (sub, k), calls in self.fiber_calls.items():
            verts = fiber_polytope_vertices(sub, level=1)
            if verts:
                total += calls * prod(floor(k * max(v[i] for v in verts)) + 1 for i in range(sub.n))
        return total

    def dump(self) -> dict:
        """Spans, aggregates and counts of the pass, as plain JSON data."""
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for name, _op, _parent, start, end, child in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
            calls[name] += 1
        for name, (n, total) in self.aggregates.items():
            self_s[name] = total
            calls[name] = n
        counts = dict(self.counts)
        counts["multiindex.box_points"] = self.box_points()
        counts["toric.sampler_drawn"] = counts.pop("toric.sampler_batches", 0) * self._sampler_batch
        counts.setdefault("toric.sampler_kept", 0)
        return {
            "spans": self.spans,
            "self_s": self_s,
            "calls": dict(calls),
            "counts": counts,
            "maxima": self.maxima,
        }
