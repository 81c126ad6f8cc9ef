"""In-memory span tracer around curvlab's public functions.

Modules bind imported names at import time, so a function is wrapped under
every module attribute that refers to it: ``curvlab.cli.curvature_operator``
and ``curvlab.jordan_ip.curvature_operator`` get separate wrappers around the
same original, and each caller hits the wrapper it looks up.  Nothing inside
``src/`` changes; uninstall restores every attribute.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "curvature", "jordan_ip", "pseudo_linalg", "complex_structures")

# Hot leaf helpers (several calls per rejected sample) stay unwrapped: a span
# would cost more than they do, and their time stays in the caller's self time.
UNWRAPPED = {"inner", "adjoint"}
# Called once per sample; counted without a span for the same reason.
COUNT_ONLY = {"classify_plane", "complex_line"}
TENSOR_PRODUCERS = {"from_self_adjoint", "from_skew_adjoint", "combine", "pullback",
                    "random_algebraic_curvature_tensor"}
SAMPLERS = {"sample_real_planes", "sample_complex_lines"}
FINGERPRINT = "pseudo_linalg.jordan_invariants"


class Tracer:
    """Records (name, start, end, parent, report) spans and boundary counts.

    ``report`` is the id of the `curvlab run` invocation a span belongs to;
    the caller sets it before each invocation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.report: int | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import numpy as np

        modules = [importlib.import_module(f"curvlab.{name}") for name in MODULES]
        public = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    public[obj] = f"{short}.{attr}"
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in public:
                    name = public[obj]
                    short = name.split(".", 1)[1]
                    wrap = self._counter if short in COUNT_ONLY else self._span
                    self._patch(mod, attr, wrap(obj, name))
        for attr in ("svd", "eigvals"):
            self._patch(np.linalg, attr, self._fingerprint_counter(getattr(np.linalg, attr), attr))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str):
        spans, stack, names, counts = self.spans, self._stack, self._names, self.counts
        short = name.split(".", 1)[1]
        produces_tensor = short in TENSOR_PRODUCERS
        samples = short in SAMPLERS
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans[idx] = (name, start, end, parent, tracer.report)
            if produces_tensor:
                counts["curvature.tensor_bytes"] += result.coeffs.nbytes
            if samples:
                counts[name + ".planes"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _fingerprint_counter(self, fn, attr: str):
        counts, names = self.counts, self._names
        key = f"{FINGERPRINT}.{attr}"

        def wrapper(*args, **kwargs):
            if FINGERPRINT in names:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------

    def dump(self, path, **extra) -> None:
        """Write spans and counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds]; self time is a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - child[idx]
    return out
