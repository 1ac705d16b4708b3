"""Spans around the calls into each densbrackets layer, recorded from outside.

Each module imports the functions it uses by name (``from .quadrature import
integrate_2d``), so a call into a layer is intercepted by replacing that name
in the calling module for the duration of a ``with tracer.installed():``
block.  The package itself is not changed.

Spans nest on a stack.  A span's wall time is its duration; its self time is
the duration minus the part covered by child spans.  Besides the spans, the
tracer counts integrand calls and points, evaluations reported by the
quadrature calls, and non-converged results.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import densbrackets
from densbrackets import areas, brackets, cli, geometry


class Tracer:
    def __init__(self) -> None:
        self.wall: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.points = 0
        self.evals = 0
        self.mass_evals = 0
        self.nonconverged = 0
        self._stack: list[list[float]] = []  # [start, time covered by children]

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            self.wall[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _kernel(self, f):
        def timed(*args):
            with self.span("kernel"):
                out = f(*args)
            self.points += np.size(out)
            return out

        return timed

    def _quadrature(self, integrate):
        def traced(f, *args, **kwargs):
            with self.span("quadrature"):
                result = integrate(self._kernel(f), *args, **kwargs)
            self.evals += result.n_evals
            self.nonconverged += not result.converged
            return result

        return traced

    def _mass(self, density_mass):
        def traced(*args, **kwargs):
            with self.span("mass"):
                result = density_mass(*args, **kwargs)
            self.mass_evals += result.n_evals
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the layer entry points in their calling modules."""
        patches = [
            (densbrackets, "parse", self.wrap("parse", densbrackets.parse)),
            (cli, "parse", self.wrap("parse", cli.parse)),
            (densbrackets, "area", self.wrap("area", densbrackets.area)),
            (cli, "area", self.wrap("area", cli.area)),
            (densbrackets, "bracket", self.wrap("bracket", densbrackets.bracket)),
            (cli, "bracket", self.wrap("bracket", cli.bracket)),
            (brackets, "density_mass", self._mass(brackets.density_mass)),
            (cli, "density_mass", self._mass(cli.density_mass)),
            (brackets, "integrate_2d", self._quadrature(brackets.integrate_2d)),
            (geometry, "integrate_2d", self._quadrature(geometry.integrate_2d)),
            (areas, "integrate_4d", self._quadrature(areas.integrate_4d)),
            (areas, "compile_expr", self.wrap("compile", areas.compile_expr)),
            (geometry, "compile_expr", self.wrap("compile", geometry.compile_expr)),
        ]
        for module, names in (
            (brackets, ("diff", "simplify")),
            (areas, ("substitute", "simplify")),
            (geometry, ("simplify",)),
        ):
            for name in names:
                patches.append(
                    (module, name, self.wrap("symbolic", getattr(module, name)))
                )
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        try:
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)
