"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

``install`` wraps every public function of the hslab modules (a name without
a leading underscore, defined in that module) and puts the wrapper into every
hslab module namespace that binds the same function, so calls are traced
where the calling module looks them up: ``cli`` calling
``extremals.whole_space_constants`` and ``identities`` calling its imported
``whole_space_constants`` both land in the same traced wrapper.  The
integrand passed to ``adaptive_gauss_kronrod`` is wrapped as well, one span
per panel evaluation.

A span is ``(name, start, end, parent, note)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``note`` holds a count the span
reports (the iteration count of a solve).  Spans stay in memory until the run
ends.  A layer's self time is its spans' duration minus the part covered by
the child spans named in its metric.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "quadrature", "extremals", "identities", "boundary_energy", "variational")

GK = "quadrature.adaptive_gauss_kronrod"
INTEGRAND = "quadrature.integrand"
SOLVE = "variational.mountain_pass_solve"
SOLVER_PARTS = ("variational.gradient", "variational.energy", "variational.nehari_scale")


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, stack[-1] if stack else -1, None))
        stack.append(index)
        return index

    def close(self, index: int, note=None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, note)

    def wrap(self, name: str, fn):
        is_gk = name == GK
        is_solve = name == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_gk:
                args = (self.wrap(INTEGRAND, args[0]), *args[1:])
            index = self.open(name)
            note = None
            try:
                result = fn(*args, **kwargs)
                if is_solve:
                    note = result[0].iterations
                return result
            finally:
                self.close(index, note)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, package) -> None:
    """Replace the public functions of ``package``'s layer modules by traced wrappers."""
    modules = [getattr(package, layer) for layer in LAYERS]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])


def layer_metrics(spans: list[tuple], roots: list[int]) -> dict[str, float]:
    """Per-layer counts and times over the spans below ``roots``."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)

    scope: list[int] = []
    todo = list(roots)
    while todo:
        i = todo.pop()
        scope.append(i)
        todo.extend(children[i])
    scope.sort()

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def named(name: str) -> list[int]:
        return [i for i in scope if spans[i][0] == name]

    def outermost(name: str) -> list[int]:
        out = []
        for i in named(name):
            j = spans[i][3]
            while j != -1 and spans[j][0] != name:
                j = spans[j][3]
            if j == -1:
                out.append(i)
        return out

    def total(name: str) -> float:
        return sum(dur(i) for i in outermost(name))

    def covered(i: int, match) -> float:
        """Time of the outermost descendants of span i whose names match."""
        acc = 0.0
        todo = list(children[i])
        while todo:
            j = todo.pop()
            if match(spans[j][0]):
                acc += dur(j)
            else:
                todo.extend(children[j])
        return acc

    def self_time(name: str, match) -> float:
        return sum(dur(i) - covered(i, match) for i in outermost(name))

    def is_quadrature(name: str) -> bool:
        return name.startswith("quadrature.")

    solves = named(SOLVE)
    iterations = sum(spans[i][4] or 0 for i in solves)
    trials_in_solves = sum(
        sum(1 for j in children[i] if spans[j][0] == "variational.nehari_scale") for i in solves
    )
    constants = named("extremals.whole_space_constants")
    ledger = "boundary_energy.bubble_energies"
    gk_s = total(GK)
    integrand_s = total(INTEGRAND)
    return {
        "quadrature.gk_calls": len(named(GK)),
        "quadrature.gk_panels": len(named(INTEGRAND)),
        "quadrature.gk_s": gk_s,
        "quadrature.integrand_s": integrand_s,
        "quadrature.gk_self_s": gk_s - integrand_s,
        "extremals.constants_calls": len(constants),
        "extremals.constants_misses": sum(1 for i in constants if covered(i, is_quadrature) > 0.0),
        "extremals.constants_s": total("extremals.whole_space_constants"),
        "identities.threshold_s": total("identities.ps_threshold"),
        "identities.recurrence_s": total("identities.beta_recurrence_check"),
        "boundary_energy.ledger_calls": len(named(ledger)),
        "boundary_energy.ledger_s": total(ledger),
        "boundary_energy.self_s": self_time(ledger, is_quadrature),
        "variational.solves": len(solves),
        "variational.iterations": iterations,
        "variational.trials": len(named("variational.nehari_scale")),
        "variational.backtracks": trials_in_solves - len(solves) - iterations,
        "variational.gradient_calls": len(named("variational.gradient")),
        "variational.energy_calls": len(named("variational.energy")),
        "variational.gradient_s": total("variational.gradient"),
        "variational.energy_s": total("variational.energy"),
        "variational.nehari_s": total("variational.nehari_scale"),
        "variational.solve_self_s": self_time(SOLVE, lambda n: n in SOLVER_PARTS),
        "variational.weights_s": total("variational.singular_weight"),
        "cli.commands": len(named("cli.main")),
        "cli.main_s": total("cli.main"),
        "cli.load_config_s": total("cli.load_config"),
        "cli.self_s": self_time("cli.main", lambda n: not n.startswith("cli.")),
    }
