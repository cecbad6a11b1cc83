"""Spans recorded around the public functions of every critline module.

``Tracer.install()`` replaces each public function in every ``critline``
module namespace that binds it (``critline.moment.zeta_line`` as well as
``critline.zeta.zeta_line``), and each public method and property of
critline's classes (``DirichletCharacter.conductor``), with a wrapper that
records a span: name, start, end and parent.  Spans stay in memory; ``layer_metrics`` turns one
pass's spans into per-layer figures and ``write`` saves them when the run
ends.  Work counts (points and terms of the line evaluators) are computed
from the recorded arguments after the pass, outside every span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
from time import perf_counter


def _zeta_line_work(bound) -> tuple[int, int]:
    """(points, terms) of one ``zeta_line`` call: terms sum points x N over
    the |t|-sorted chunks, with N = max(20, ceil(factor * max|t|))."""
    args = bound.arguments
    t = sorted(abs(float(x)) for x in _flat(args["t"]))
    chunk = int(args["chunk"])
    terms = 0
    for c0 in range(0, len(t), chunk):
        part = t[c0 : c0 + chunk]
        terms += len(part) * max(20, int(math.ceil(float(args["factor"]) * part[-1])))
    return len(t), terms


def _short(module: str) -> str:
    return module.split(".")[-1]


def _flat(values):
    return values.ravel().tolist() if hasattr(values, "ravel") else list(values)


@functools.lru_cache(maxsize=None)
def _squarefree_count(n: int) -> int:
    sieve = bytearray([1]) * (n + 1)
    for k in range(2, math.isqrt(n) + 1):
        sieve[k * k :: k * k] = bytearray(len(sieve[k * k :: k * k]))
    return sum(sieve[1:])


def _mollifier_line_work(bound) -> tuple[int, int]:
    """(points, terms) of one ``mollifier_line`` call: points x #{squarefree h <= M}."""
    points = len(_flat(bound.arguments["t"]))
    return points, points * _squarefree_count(int(math.floor(bound.arguments["spec"].m_length)))


def _sieve_work(bound) -> tuple[int, int]:
    """(1, limit + 1) of one ``get_sieve`` call: the entries its table holds."""
    limit = bound.arguments["limit"]
    if limit is None:
        limit = sys.modules["critline.arithmetic"].default_sieve_limit()
    return 1, int(limit) + 1


# span name -> work counter evaluated on the bound call arguments
WORK = {
    "zeta.zeta_line": _zeta_line_work,
    "mollifier.mollifier_line": _mollifier_line_work,
    "arithmetic.get_sieve": _sieve_work,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: dict[int, tuple] = {}  # span index -> (signature, args, kwargs)
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, func):
        counted = name in WORK
        signature = inspect.signature(func) if counted else None
        names, starts, ends, parents, stack, calls = (
            self.names, self.starts, self.ends, self.parents, self._stack, self.calls)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if counted:
                calls[idx] = (signature, args, kwargs)
            stack.append(idx)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end

        return traced

    def install(self):
        """Wrap every public critline function in every namespace binding it,
        and the public methods and properties of critline's classes."""
        wrappers = {}
        classes = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "critline" or mod_name.startswith("critline.")):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("critline."):
                    continue
                if inspect.isclass(obj):
                    if obj not in classes:
                        classes.append(obj)
                    continue
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{_short(obj.__module__)}.{obj.__name__}", obj)
                self._replace(module, attr, wrappers[obj])
        for cls in classes:
            prefix = f"{_short(cls.__module__)}.{cls.__name__}."
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    self._replace(cls, attr, self._wrap(prefix + attr, member))
                elif isinstance(member, property) and member.fget is not None:
                    getter = self._wrap(prefix + attr, member.fget)
                    self._replace(cls, attr, property(getter, member.fset, member.fdel, member.__doc__))

    def _replace(self, owner, attr, value):
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def call_work(self, i: int) -> tuple[int, int]:
        """The WORK counter of span i, from its recorded arguments."""
        signature, args, kwargs = self.calls[i]
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return WORK[self.names[i]](bound)

    def mark(self) -> int:
        return len(self.names)

    def summary(self, first: int = 0) -> "SpanSummary":
        return SpanSummary(self, first, len(self.names))

    def write(self, path):
        """Save every span as tab-separated name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")


class SpanSummary:
    """Counts, inclusive and self times of the spans in [first, last)."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        self.tracer = tracer
        self.first, self.last = first, last
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, list[int]] = {}
        child = [0.0] * (last - first)
        names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
        for i in range(first, last):
            p = parents[i]
            if p >= first:
                child[p - first] += ends[i] - starts[i]
        for i in range(first, last):
            name = names[i]
            self.count[name] = self.count.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (ends[i] - starts[i]) - child[i - first]
            if i in tracer.calls:
                points, terms = tracer.call_work(i)
                acc = self.work.setdefault(name, [0, 0])
                acc[0] += points
                acc[1] += terms

    def inclusive_s(self, *group: str) -> float:
        """Time inside spans of the group, counting nested group spans once."""
        tr = self.tracer
        members = set(group)
        total = 0.0
        for i in range(self.first, self.last):
            if tr.names[i] not in members:
                continue
            p = tr.parents[i]
            while p >= self.first and tr.names[p] not in members:
                p = tr.parents[p]
            if p < self.first:
                total += tr.ends[i] - tr.starts[i]
        return total

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def prefix_inclusive_s(self, prefix: str) -> float:
        return self.inclusive_s(*(k for k in self.count if k.startswith(prefix)))
