"""Span tracer that wraps a package's public functions from outside.

Every public function (a name in a module's ``__all__`` defined by that
module) is replaced by a wrapper in *every* module namespace that binds it,
so calls made through ``from module import name`` are seen too.  Each call
records one span: name id, start, end, parent span, whether it raised, and
an optional size (for example the quadrature order of a rule).  Spans live
in flat arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Collects spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.raised = array("b")
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, size=None):
        """A wrapper of ``fn`` recording one span per call.  ``size`` maps
        (args, kwargs, result) to a number stored with the span; result is
        None when the call raised."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.raised.append(0)
            self.size.append(1.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                if size is not None:
                    self.size[idx] = float(size(args, kwargs, result))

        return traced

    def install(self, modules, sizes=None) -> None:
        """Wrap the public functions of ``modules`` and rebind every alias of
        them found in any of ``modules``.  ``sizes`` maps span names to size
        functions (see :meth:`wrap`)."""
        sizes = sizes or {}
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped[id(fn)] = (fn, self.wrap(name, fn, sizes.get(name)))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)][1])

    def uninstall(self) -> None:
        """Put every original function back."""
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays (names resolved through ``names``)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus the durations of its
    direct children (children nest inside their parent, so their intervals
    are disjoint sub-intervals of it)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered
