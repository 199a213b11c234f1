"""Spans around the public functions of each eulerflags layer.

install() wraps every public function a layer module defines, and the
public methods of its classes, except the per-element helpers in UNTRACED.
It rebinds the wrapped object under every name that pointed at the
original in any eulerflags module, so calls made inside the library are
traced as well as calls made by the benchmark.
Spans (name, start, end, parent) go into flat in-memory arrays and are
written out once, at the end; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "flags", "cocycles", "simplicial", "surfaces", "circle",
          "montecarlo", "serialize", "cli")
# Coercions and argument checks run once per element or argument; a span
# around them would cost more than their body and swamp the other spans.
UNTRACED = {"linalg.fr", "linalg.vec", "linalg.mat", "linalg.is_zero_vec",
            "linalg.require_even"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(f"eulerflags.{m}") for m in LAYERS]
        users = [m for k, m in sys.modules.items()
                 if k == "eulerflags" or k.startswith("eulerflags.")]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for user in users:
                        for uattr, uobj in list(vars(user).items()):
                            if uobj is obj:
                                self._set(user, uattr, wrapped)
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, mattr, self._wrap(f"{layer}.{mattr}", meth))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """{name: (calls, self seconds)} over every span recorded."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {self.names[i]: (int(calls[i]), float(selfs[i]))
                for i in np.flatnonzero(calls)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))
