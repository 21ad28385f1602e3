"""Outside-in layer timers for dscurves.

`install()` replaces the public functions of `fpoly`, `weil`, `splitting`,
`localpoints`, `certificate` and `cli` with timing wrappers, wherever a
`dscurves` module binds them (`from .x import y` copies a binding, so one
function can live in several module namespaces), and patches the `Poly`
product and division on the class.  The program itself is not changed.

Stages become spans (name, start, end, parent, operation id), kept in
memory and written out at the end.  The `fpoly` kernels run hundreds of
thousands of times per operation, so they are aggregated as counts and
summed time instead of one span per call.

A layer's self time is its duration minus the time covered by its child
spans and by the kernels that run directly inside it.  Kernels must not call
stages; none of the listed ones does.
"""

import functools
import sys
import time

# (module, function) pairs timed as stages: one span per call.
STAGES = (
    ("weil", "dset"),
    ("weil", "p_excluded"),
    ("splitting", "nonexistence_criterion"),
    ("splitting", "mu_y_obstruction"),
    ("localpoints", "fast_m_bound"),
    ("localpoints", "witness_search"),
    ("localpoints", "witness_ok"),
    ("localpoints", "lambda_set"),
    ("localpoints", "local_all"),
    ("certificate", "hasse_certificate"),
    ("certificate", "verify_certificate"),
    ("cli", "main"),
)

# fpoly functions timed as aggregated kernels.
KERNEL_FUNCTIONS = ("powmod", "residue_symbol", "is_irreducible",
                    "monic_irreducibles")

# Poly methods patched on the class, with the kernel name they report as.
KERNEL_METHODS = (("__mul__", "mul"), ("__rmul__", "mul"),
                  ("__divmod__", "divmod"))

# lru-cached functions whose public cache_info() gives hits and misses.
CACHED = (("fpoly", "monic_irreducibles"), ("weil", "dset"),
          ("localpoints", "fast_m_bound"))


def mul_ops(len_a, len_b):
    """Coefficient multiply-adds of a schoolbook product: len * len."""
    return len_a * len_b


def divmod_ops(deg_a, deg_b):
    """Coefficient multiply-adds of a long division:
    (deg a - deg b + 1) * (deg b + 1), and none when deg a < deg b."""
    if deg_b < 0 or deg_a < deg_b:
        return 0
    return (deg_a - deg_b + 1) * (deg_b + 1)


def self_times(spans):
    """Self time per span name from a span list.

    Each span is (op, name, start, end, parent_index, kernel_s), where
    parent_index points into the same list (None at the root) and kernel_s
    is the kernel time that ran directly inside the span.  Returns
    {name: summed self time}.
    """
    child_s = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = {}
    for i, (_, name, start, end, _, kernel_s) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_s[i] - kernel_s
    return out


class Tracer:
    """Span and kernel recorder for one process; `op` is the id stamped on
    every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = 0
        self.spans = []
        # kernel name -> [calls, total_s, self_s, coeff_ops]
        self.kernels = {}
        # stage name -> number of calls that returned a useful result
        self.found = {}
        self.places = 0
        self.norm_degree_max = 0
        self.valid = 0
        self.cache = {}
        # open frames: [start, child_s, span_index or None, kernel_s]
        self._stack = []

    def stage(self, name, fn, observe=None):
        """Wrap fn so each call records a span; observe(tracer, result)
        runs on each result."""
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = None
            for frame in reversed(stack):
                if frame[2] is not None:
                    parent = frame[2]
                    break
            index = len(spans)
            spans.append(None)
            frame = [clock(), 0.0, index, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, frame[0], end, parent, frame[3])
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def kernel(self, name, fn, ops=None):
        """Wrap fn as an aggregated kernel; ops(*args) gives its
        coefficient operation count."""
        clock, stack = self.clock, self._stack
        acc = self.kernels.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, None, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    if parent[2] is None:
                        parent[1] += dur
                    else:
                        parent[3] += dur
            if ops is not None:
                acc[3] += ops(*args)
            return result

        return wrapper

    def dump(self):
        """JSON-ready record of everything this process measured."""
        return {"spans": self.spans, "kernels": self.kernels,
                "found": self.found, "places": self.places,
                "norm_degree_max": self.norm_degree_max,
                "valid": self.valid, "cache": self.cache}


def _count_found(name):
    def observe(tracer, result):
        if result is not None:
            tracer.found[name] = tracer.found.get(name, 0) + 1
    return observe


def _observe_dset(tracer, entries):
    for entry in entries:
        tracer.norm_degree_max = max(tracer.norm_degree_max, entry.value.degree)


def _observe_lambda_set(tracer, places):
    tracer.places += len(places)


def _observe_certificate(tracer, cert):
    tracer.valid += bool(cert.valid)


_OBSERVERS = {
    "weil.dset": _observe_dset,
    "localpoints.fast_m_bound": _count_found("localpoints.fast_m_bound"),
    "localpoints.witness_search": _count_found("localpoints.witness_search"),
    "localpoints.lambda_set": _observe_lambda_set,
    "certificate.hasse_certificate": _observe_certificate,
}


def _mul_args_ops(a, b):
    return mul_ops(len(a.coeffs), len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _divmod_args_ops(a, b):
    return divmod_ops(len(a.coeffs) - 1, len(b.coeffs) - 1)


def _rebind(modules, original, wrapper):
    """Point every module binding of original at wrapper."""
    for module in modules:
        for attr in [k for k, v in vars(module).items() if v is original]:
            setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every listed function and Poly method for this process.

    A listed function that no longer exists raises AttributeError here, so
    a rename fails loudly instead of reporting zero calls.
    """
    import dscurves.cli  # noqa: F401  (binds every module)
    from dscurves.fpoly import Poly

    modules = [m for n, m in sys.modules.items()
               if n == "dscurves" or n.startswith("dscurves.")]
    originals = {}
    for mod, fn in CACHED:
        originals[(mod, fn)] = getattr(sys.modules["dscurves." + mod], fn)
    for mod, fn in STAGES:
        name = "%s.%s" % (mod, fn)
        original = getattr(sys.modules["dscurves." + mod], fn)
        _rebind(modules, original, tracer.stage(name, original, _OBSERVERS.get(name)))
    for fn in KERNEL_FUNCTIONS:
        original = getattr(sys.modules["dscurves.fpoly"], fn)
        _rebind(modules, original, tracer.kernel("fpoly." + fn, original))
    for method, name in KERNEL_METHODS:
        ops = _mul_args_ops if name == "mul" else _divmod_args_ops
        setattr(Poly, method, tracer.kernel("fpoly." + name, vars(Poly)[method], ops))

    def read_caches():
        for (mod, fn), original in originals.items():
            info = original.cache_info()
            tracer.cache["%s.%s" % (mod, fn)] = [info.hits, info.misses]

    return read_caches
