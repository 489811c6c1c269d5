"""Span tracer that wraps the library's public functions from outside it.

Every public function of the library modules, and every public method of
the classes they define, is replaced by a wrapper at each name it can be
looked up by.  A function imported into another module is patched in every
module that holds it: ``phase_sensitivity`` is read both as
``su12sim.sensitivity.phase_sensitivity`` and as
``su12sim.optimizer.phase_sensitivity``, and patching only one of them
misses the calls made through the other.

Each call records one span (name, start, end, parent span, request id) in
flat arrays, so a run of half a million calls stays small in memory; the
spans are written out when the run ends, and self time is derived from
them.  ``count_entries`` counts frame entries of the same functions with
``sys.settrace``, independently of the wrappers, so a run can prove that
the wrappers saw every call.
"""

import array
import collections
import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("lie", "interferometer", "gaussian", "sensitivity", "optimizer",
           "fock_oracle", "cli")

# The cli subcommand handlers are reached only through main; leaving them
# unwrapped keeps argument parsing and CSV/summary writing in main's self time.
CLI_ENTRY_POINTS = ("main",)


def _discover(package):
    """(span name, owner, attribute, class or module member) per traced callable.

    Module functions are named ``module.function``, methods
    ``module.method`` and constructors ``module.Class``; a name already
    taken falls back to ``module.Class.method``.
    """
    found, names = [], set()

    def add(name, qualified, owner, attr, fn):
        name = qualified if name in names else name
        names.add(name)
        found.append((name, owner, attr, fn))

    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if short != "cli" or attr in CLI_ENTRY_POINTS:
                    add(f"{short}.{attr}", f"{short}.{attr}", mod, attr, obj)
            elif inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not inspect.isfunction(fn):
                        continue  # properties and data
                    if mname == "__init__" and not dataclasses.is_dataclass(obj):
                        add(f"{short}.{attr}", f"{short}.{attr}", obj, mname, member)
                    elif not mname.startswith("_"):
                        add(f"{short}.{mname}", f"{short}.{attr}.{mname}", obj,
                            mname, member)
    return found


class Tracer:
    """Records one span per call of every wrapped library callable."""

    def __init__(self, observers=None, clock=time.perf_counter):
        self.names = []
        self.raised = []
        self.request = -1
        self._observers = observers or {}
        self._name = array.array("i")
        self._parent = array.array("i")
        self._req = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack = [-1]
        self._codes = {}
        self._clock = clock

    def __len__(self):
        return len(self._start)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.raised.append(0)
        self._codes[fn.__code__] = name
        names, parents, reqs = self._name, self._parent, self._req
        starts, ends, stack, raised = self._start, self._end, self._stack, self.raised
        observe = self._observers.get(name)
        clock = self._clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(tracer.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, fn, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package="su12sim"):
        """Patch every lookup name of every traced callable; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        patches = []
        try:
            for name, owner, attr, member in _discover(package):
                if inspect.isclass(owner):
                    fn = getattr(member, "__func__", member)
                    wrapper = self._wrap(name, fn)
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapper = type(member)(wrapper)
                    patches.append((owner, attr, member))
                    setattr(owner, attr, wrapper)
                    continue
                wrapper = self._wrap(name, member)
                for mod in modules:
                    for alias in [a for a, v in vars(mod).items() if v is member]:
                        patches.append((mod, alias, member))
                        setattr(mod, alias, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def count_entries(self, call):
        """Run call() and count frame entries of every wrapped function.

        Counts by code object through sys.settrace, so it sees each call
        whatever name it was made through.  Use while installed.
        """
        counts = collections.Counter()
        codes = self._codes

        def hook(frame, event, arg):
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

        sys.settrace(hook)
        try:
            result = call()
        finally:
            sys.settrace(None)
        return result, counts

    def layer_stats(self):
        """Per-name calls, raised, total_s and self_s derived from the spans."""
        k = len(self.names)
        name = np.asarray(self._name, dtype=np.intp)
        parent = np.asarray(self._parent, dtype=np.intp)
        dur = np.asarray(self._end) - np.asarray(self._start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - children, minlength=k)
        return {
            n: {"calls": int(calls[i]), "raised": self.raised[i],
                "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def write_spans(self, path):
        """Tab-separated spans: id, parent, request, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self._parent[i]}\t{self._req[i]}\t"
                         f"{self.names[self._name[i]]}\t{self._start[i]:.9f}\t"
                         f"{self._end[i]:.9f}\n")
