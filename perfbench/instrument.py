"""Outside-in instrumentation of the ssam package.

Nothing here edits the package. Every instrument wraps a public function
(plus the tape's ``_toposort``) by rebinding the attribute that callers
look it up through, and :class:`Patches` puts the originals back.

* :class:`StepTimer` is the only instrument of an untraced run. It times
  each adaptation step, from the ``value_and_gradient`` call to the end
  of the optimizer update, and each objective evaluation made by the
  finite-difference oracle. Between them it runs a :class:`Reference`.
* :class:`Reference` times a fixed numpy kernel, which is not the
  program, to gauge how fast the host runs this thread at the moment.
* :class:`Tracer` records a span (id, name, start, end, parent, run id)
  at every layer boundary and exact per-thread counters, and
  :func:`layer_metrics` turns both into the per-layer metrics.
* :class:`EncoderRegistry` remembers the weight checksum of every encoder
  built, so a run can check that no weight moved.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

LAYERS = (
    "numerics",
    "encoders",
    "association",
    "objectives",
    "adaptation",
    "synthetic",
    "reports",
    "gradcheck",
)

# Tape ops whose backward rule gets its own metric: the conv family's hot
# path, then the attention family's. Every other op is summed as "other".
VJP_OPS = (
    "conv3x3_same",
    "tile_tokens",
    "tanh",
    "tokens_linear",
    "batch_matmul",
    "batch_matmul_nt",
    "softmax_last",
    "center_last",
    "row_softmax",
    "cosine_similarity_matrix",
)


class Patches:
    """Rebinds attributes of ssam modules and classes; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(self, cls, name: str, make_wrapper) -> None:
        self.set(cls, name, make_wrapper(vars(cls)[name]))

    def function(self, module, name: str, make_wrapper, only_in=None) -> None:
        """Wrap ``module.name`` in every ssam module that binds it: a
        function imported by name lives in each importer's namespace.
        ``only_in`` limits the rebinding to the given modules."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        if only_in is None:
            only_in = [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == "ssam" or key.startswith("ssam."))
            ]
        for mod in only_in:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Reference:
    """A fixed numpy kernel, timed in the CPU time of the thread it runs on.

    A shared host runs a thread at a speed that drifts by a third or more
    over seconds to minutes, and it slows the program and this kernel
    alike. :meth:`factor` turns a time measured while the kernel was
    sampled into the time on a host that runs the kernel in
    ``NOMINAL_S``, and :meth:`scale` does so window by window.

    The kernel mixes small-array ufuncs, a 64 x 64 matmul and an einsum
    reduction, as the program does, on about 100 KB of data. It runs in
    bursts: the first ``WARM`` runs of a burst are not timed, because a
    run right after the program's own code reads slow by a varying
    amount. Each thread that calls :meth:`maybe` samples for itself, so
    the ablation pool threads sample the vCPUs they run on.
    """

    NOMINAL_S = 200e-6
    EVERY_S = 0.02  # a thread's CPU time between its bursts, ~3 % overhead
    WARM, KEEP = 1, 2  # untimed and timed runs of the kernel in a burst
    WINDOW_S = 0.25  # the host keeps its speed about this long or longer

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.random((8, 16))
        self._square = rng.random((64, 64))
        self._maps = rng.random((16, 8, 8, 8))
        # (perf_counter() at its end, CPU seconds) of each timed run of the
        # kernel; list.append is atomic, so the pool threads share the list
        self.samples: list = []
        self._local = threading.local()

    def _kernel(self) -> None:
        np, small, square, maps = self._np, self._small, self._square, self._maps
        for _ in range(20):
            np.tanh(small) * 2.0 + small.sum(axis=1, keepdims=True)
        for _ in range(3):
            square @ square
            np.einsum("nchw,nchw->c", maps, maps)

    def burst(self, keep: int = KEEP) -> None:
        """``WARM`` untimed runs of the kernel, then ``keep`` timed ones."""
        for _ in range(self.WARM):
            self._kernel()
        for _ in range(keep):
            t0 = thread_time()
            self._kernel()
            self.samples.append((perf_counter(), thread_time() - t0))
        self._local.last = thread_time()

    def maybe(self) -> None:
        """A burst, if ``EVERY_S`` of this thread's CPU time has passed
        since its last one."""
        last = getattr(self._local, "last", None)
        if last is None or thread_time() - last >= self.EVERY_S:
            self.burst()

    def factor(self) -> float:
        """``NOMINAL_S`` over the median sample; 1 with no samples."""
        if not self.samples:
            return 1.0
        return self.NOMINAL_S / statistics.median(s for _, s in self.samples)

    def scale(self, start: float, end: float, steps) -> tuple:
        """The stretch ``start``..``end`` of perf_counter() time and the
        ``(end time, seconds)`` steps in it, at nominal speed: (seconds,
        step seconds). The stretch is cut into windows of about
        ``WINDOW_S``; each window is scaled by the factor of the samples
        taken in it, or by :meth:`factor` if it holds none."""
        n = max(1, round((end - start) / self.WINDOW_S))
        width = (end - start) / n

        def window(t):
            return min(n - 1, max(0, int((t - start) / width))) if width > 0 else 0

        held: list = [[] for _ in range(n)]
        for t, sample in self.samples:
            held[window(t)].append(sample)
        overall = self.factor()
        factors = [self.NOMINAL_S / statistics.median(h) if h else overall for h in held]
        return width * sum(factors), [d * factors[window(t)] for t, d in steps]


class StepTimer:
    """Seconds per adaptation step or per finite-difference evaluation,
    with a :class:`Reference` sampled between them."""

    def __init__(self) -> None:
        # (end time, seconds) of each step; list.append is atomic, so the
        # ablation pool threads share one list
        self.samples: list = []
        self.reference = Reference()
        self._local = threading.local()

    def install(self, patches: Patches, ssam) -> None:
        samples, local, reference = self.samples, self._local, self.reference

        def on_value_and_gradient(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                local.start = perf_counter()
                return fn(*args, **kwargs)

            return wrapped

        def on_optimizer_step(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                start = getattr(local, "start", None)
                if start is not None:
                    end = perf_counter()
                    samples.append((end, end - start))
                    local.start = None
                reference.maybe()
                return out

            return wrapped

        def on_finite_difference(fn):
            @functools.wraps(fn)
            def wrapped(objective, *args, **kwargs):
                def timed(x):
                    t0 = perf_counter()
                    out = objective(x)
                    end = perf_counter()
                    samples.append((end, end - t0))
                    reference.maybe()
                    return out

                return fn(timed, *args, **kwargs)

            return wrapped

        num, adaptation = ssam.numerics, ssam.adaptation
        patches.function(num, "value_and_gradient", on_value_and_gradient)
        patches.function(num, "finite_difference_gradient", on_finite_difference)
        for cls in (adaptation.AdamOptimizer, adaptation.SgdOptimizer):
            patches.method(cls, "step", on_optimizer_step)


class EncoderRegistry:
    """Every encoder built while installed, with its weight checksum."""

    def __init__(self) -> None:
        self.built: list = []

    def install(self, patches: Patches, ssam) -> None:
        def on_init(fn):
            @functools.wraps(fn)
            def wrapped(encoder, *args, **kwargs):
                fn(encoder, *args, **kwargs)
                self.built.append((encoder, encoder.weights_checksum()))

            return wrapped

        for cls in (ssam.encoders.ToyConvEncoder, ssam.encoders.ToyViTEncoder):
            patches.method(cls, "__init__", on_init)

    def moved(self) -> list:
        """Encoders whose weights changed since they were built."""
        return [
            f"{enc.family} encoder {i}: weights checksum changed"
            for i, (enc, digest) in enumerate(self.built)
            if enc.weights_checksum() != digest
        ]


class Tracer:
    """Spans and counters, kept in memory until the run ends.

    A span is ``[id, name, start, end, parent id, run id]``. Spans opened
    on a pool thread with nothing open on that thread take as parent the
    innermost span open on the thread that made the tracer, which is the
    call that owns the pool. Counters are per thread, so counts from the
    pool threads are exact, and :meth:`totals` adds them up.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters: list = []
        self._seen: set = set()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counts(self) -> defaultdict:
        c = getattr(self._local, "counts", None)
        if c is None:
            c = self._local.counts = defaultdict(float)
            with self._lock:
                self._counters.append(c)
        return c

    def totals(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            for c in self._counters:
                for key, value in c.items():
                    out[key] += value
        return out

    def first_time(self, key) -> bool:
        """True the first time ``key`` is seen in the current run id."""
        with self._lock:
            if (self.run_id, key) in self._seen:
                return False
            self._seen.add((self.run_id, key))
            return True

    def span(self, name: str, before=None):
        """Wrapper factory: time each call as a span named ``name``;
        ``before(counts, *args, **kwargs)`` may count the call first."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if before is not None:
                    before(self.counts(), *args, **kwargs)
                stack = self._stack()
                if stack:
                    parent = stack[-1]
                else:
                    try:
                        parent = self._main_stack[-1]
                    except IndexError:
                        parent = None
                rec = [next(self._ids), name, perf_counter(), None, parent, self.run_id]
                stack.append(rec[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    stack.pop()
                    self.spans.append(rec)

            return traced

        return make

    def _timed_vjp(self, op: str, vjp):
        key = op if op in VJP_OPS else "other"

        def timed(g):
            t0 = perf_counter()
            out = vjp(g)
            c = self.counts()
            c["vjp_s." + key] += perf_counter() - t0
            c["vjp_calls." + key] += 1
            return out

        return timed

    def install(self, patches: Patches, ssam) -> None:
        import numpy as np

        num, enc, adaptation = ssam.numerics, ssam.encoders, ssam.adaptation
        association, objectives = ssam.association, ssam.objectives
        synthetic, reports = ssam.bench.synthetic, ssam.bench.reports
        gradcheck, cli = ssam.bench.gradcheck, ssam.bench.cli
        Var = num.Var

        def on_custom_node(fn):
            @functools.wraps(fn)
            def counted(op, out, edges):
                c = self.counts()
                c["custom_node_calls"] += 1
                edges = tuple(edges)
                if any(isinstance(p, Var) for p, _ in edges):
                    edges = tuple((p, self._timed_vjp(op, vjp)) for p, vjp in edges)
                result = fn(op, out, edges)
                if isinstance(result, Var):
                    c["nodes"] += 1
                    c["node_bytes"] += result.value.nbytes
                return result

            return counted

        def on_finite_difference(fn):
            traced = self.span("numerics.finite_difference_gradient")(fn)

            @functools.wraps(fn)
            def wrapped(objective, *args, **kwargs):
                def counted(x):
                    self.counts()["fd_evals"] += 1
                    return objective(x)

                return traced(counted, *args, **kwargs)

            return wrapped

        def count_images(c, encoder, images, *args, **kwargs):
            c["encode_batch_calls"] += 1
            c["images_encoded"] += len(images)

        def count_zero_adapter(c, encoder, images, labels, adapter, t, *args, **kwargs):
            tokens = np.asarray(getattr(adapter, "tokens", adapter))
            if tokens.any():
                return
            c["zero_adapter_evals"] += 1
            key = hashlib.sha256()
            key.update(encoder.weights_checksum().encode())
            key.update(repr(getattr(encoder, "insertion_layer", None)).encode())
            for arr in (images, labels, getattr(t, "matrix", t)):
                key.update(np.ascontiguousarray(arr).tobytes())
            if self.first_time(key.hexdigest()):
                c["zero_adapter_distinct"] += 1

        patches.function(num, "custom_node", on_custom_node)
        patches.function(num, "finite_difference_gradient", on_finite_difference)
        for module, name, before in (
            (num, "value_and_gradient", None),
            (num, "gradient", None),
            (num, "_toposort", None),
            (association, "association_map", None),
            (association, "estimate_prototypes", None),
            (objectives, "total_objective", None),
            (adaptation, "run_stream", None),
            (adaptation, "adapt_batch", None),
            (adaptation, "classify_batch", None),
            (adaptation, "evaluate", count_zero_adapter),
            (reports, "run_experiment", None),
            (reports, "write_report", None),
            (reports, "run_ablation", None),
            (reports, "write_ablation", None),
            (synthetic, "generate_dataset", None),
            (synthetic, "save_benchmark", None),
            (synthetic, "load_dataset", None),
            (synthetic, "load_companion_embeddings", None),
            (gradcheck, "gradcheck_command", None),
            (cli, "main", None),
        ):
            layer = module.__name__.rsplit(".", 1)[-1]
            patches.function(module, name, self.span(f"{layer}.{name.lstrip('_')}", before))
        # gradcheck calls the single losses directly; total_objective calls
        # them too, but there they stay inside its own span
        for name in ("loss_entropy", "loss_pir", "loss_ca", "reconstruct"):
            patches.function(
                objectives, name, self.span(f"objectives.{name}"), only_in=[gradcheck]
            )
        for cls in (enc.ToyConvEncoder, enc.ToyViTEncoder):
            patches.method(cls, "encode_batch", self.span("encoders.encode_batch", count_images))
            patches.method(cls, "__init__", self.span("encoders.build"))
        for cls in (adaptation.AdamOptimizer, adaptation.SgdOptimizer):
            patches.method(cls, "step", self.span("adaptation.optimizer_step"))


# ---------------------------------------------------------------------------
# spans -> metrics


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = max(0.0, (end - start) - covered)
    return out


def layer_metrics(spans, totals: dict, reps: int, pool_threads: int) -> dict:
    """Per-layer metrics for one set-up plus one invocation: every time
    and count is a total over ``reps`` traced repetitions divided by
    ``reps``. Times named in the per-function metrics are inclusive
    unless the metric is documented as a self time."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    dur: dict = defaultdict(float)
    self_by_name: dict = defaultdict(float)
    self_by_layer: dict = defaultdict(float)
    under_gradcheck: dict = defaultdict(float)
    ablations = {s[0]: s for s in spans if s[1] == "reports.run_ablation"}
    pool_tasks: dict = defaultdict(list)
    for s in spans:
        sid, name, start, end, parent, _ = s
        dur[name] += end - start
        self_by_name[name] += own[sid]
        self_by_layer[name.split(".", 1)[0]] += own[sid]
        if name == "adaptation.run_stream" and parent in ablations:
            pool_tasks[parent].append(s)
        p = parent
        while p is not None:
            if by_id[p][1] == "gradcheck.gradcheck_command":
                under_gradcheck[name] += end - start
                break
            p = by_id[p][4]

    busy = sum(t[3] - t[2] for tasks in pool_tasks.values() for t in tasks)
    capacity = sum((a[3] - a[2]) * pool_threads for a in ablations.values())
    wait = sum(t[2] - ablations[pid][2] for pid, tasks in pool_tasks.items() for t in tasks)
    evals = totals.get("zero_adapter_evals", 0.0)
    calls = totals.get("custom_node_calls", 0.0)

    m = {
        "numerics.backward_s": dur["numerics.gradient"],
        "numerics.toposort_s": dur["numerics.toposort"],
    }
    for op in VJP_OPS + ("other",):
        m[f"numerics.vjp_s.{op}"] = totals.get("vjp_s." + op, 0.0)
        m[f"numerics.vjp_calls.{op}"] = totals.get("vjp_calls." + op, 0.0)
    m.update(
        {
            "numerics.custom_node_calls": calls,
            "numerics.nodes": totals.get("nodes", 0.0),
            "numerics.node_bytes": totals.get("node_bytes", 0.0),
            "numerics.finite_difference_s": self_by_name["numerics.finite_difference_gradient"],
            "numerics.fd_evals": totals.get("fd_evals", 0.0),
            "encoders.encode_batch_s": dur["encoders.encode_batch"],
            "encoders.encode_batch_calls": totals.get("encode_batch_calls", 0.0),
            "encoders.images_encoded": totals.get("images_encoded", 0.0),
            "association.association_map_s": dur["association.association_map"],
            "association.estimate_prototypes_s": dur["association.estimate_prototypes"],
            "objectives.total_objective_s": self_by_name["objectives.total_objective"],
            "adaptation.optimizer_step_s": dur["adaptation.optimizer_step"],
            "adaptation.classify_batch_s": dur["adaptation.classify_batch"],
            "adaptation.evaluate_s": dur["adaptation.evaluate"],
            "adaptation.zero_adapter_evals": evals,
            "reports.run_experiment_s": self_by_name["reports.run_experiment"],
            "reports.write_report_s": dur["reports.write_report"],
            "reports.pool_wait_s": wait,
            "synthetic.generate_dataset_s": dur["synthetic.generate_dataset"],
            "synthetic.save_benchmark_s": dur["synthetic.save_benchmark"],
            "synthetic.load_dataset_s": dur["synthetic.load_dataset"],
            "gradcheck.analytic_s": under_gradcheck["numerics.value_and_gradient"],
            "gradcheck.fd_s": under_gradcheck["numerics.finite_difference_gradient"],
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m = {k: v / reps for k, v in m.items()}
    # ratios of totals need no division by reps
    m["numerics.graph_node_ratio"] = totals.get("nodes", 0.0) / calls if calls else 0.0
    m["adaptation.pre_eval_repeat_ratio"] = (
        totals.get("zero_adapter_distinct", 0.0) / evals if evals else 1.0
    )
    m["reports.pool_busy_ratio"] = busy / capacity if capacity else 0.0
    return m
