"""Outside-in tracing of entlab: wrap public functions at the names their
callers look up, record one span per call in memory, and turn the spans into
the per-layer metrics of BENCHMARK.json.

Nothing in entlab changes.  A function is wrapped where the caller finds it:
`dmrg` binds `reduced_density_left` and `oscillator_ops` by `from ... import`,
so those are wrapped in `dmrg` as well as in their home modules, and
`numerics` looks up `eigsh` as a module global, so that global is wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _bessel_span(args, kwargs):
    ell = args[0] if args else kwargs["ell"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "numerics.bessel.scan" if max(_size(ell), _size(x)) > 1 else "numerics.bessel.point"


def _bessel_evals(args, kwargs, result):
    return _size(result)


def _matvec_flops(args, kwargs, result):
    # H psi + psi H + phi psi phi: four n x n products of 2 n^3 flops each
    n = args[0].block_dim
    return 8 * n ** 3


def _mode_count(args, kwargs, result):
    return len(result)


# (module, attribute, span name or name function, work function or None).
# The module is given by its name inside the entlab package; "dmrg.Superblock"
# names a class whose method is wrapped.
WRAPS = (
    ("cli", "run_experiment", "cli.run", None),
    ("dmrg", "dmrg_step", "dmrg.step", None),
    ("dmrg.Superblock", "matvec", "dmrg.matvec", _matvec_flops),
    ("dmrg", "reduced_density_left", "quantum_state.reduced_density", None),
    ("dmrg", "oscillator_ops", "harmonic_chain.ops", None),
    ("numerics", "smallest_eigenpair", "numerics.eigensolve", None),
    ("numerics", "eigsh", "numerics.arpack", None),
    ("numerics", "sym_eig", "numerics.sym_eig", None),
    ("numerics", "svd", "numerics.svd", None),
    ("numerics", "bessel_K_imag", _bessel_span, _bessel_evals),
    ("numerics", "find_roots", "numerics.roots", None),
    ("rindler", "discrete_spectrum", "rindler.spectrum", _mode_count),
    ("rindler", "to_kruskal", "rindler.kruskal", None),
    ("rindler", "from_kruskal", "rindler.kruskal", None),
    ("quantum_state", "reduced_density_left", "quantum_state.reduced_density", None),
    ("quantum_state", "reduced_density_right", "quantum_state.reduced_density", None),
    ("quantum_state", "von_neumann_entropy", "quantum_state.entropy", None),
    ("quantum_state", "schmidt", "quantum_state.schmidt", None),
    ("quantum_state", "evolve_product", "quantum_state.evolve", None),
    ("quantum_state", "truncation_distance", "quantum_state.distance", None),
    ("harmonic_chain", "ground_state_covariance", "harmonic_chain.oracle", None),
    ("harmonic_chain", "block_entropy", "harmonic_chain.oracle", None),
    ("harmonic_chain", "fock_ground_state", "harmonic_chain.fock", None),
    ("harmonic_chain", "oscillator_ops", "harmonic_chain.ops", None),
)


class Tracer:
    """Records spans as [name, parent index, start, end, work] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name, work=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self, package) -> list[str]:
        """Wrap every entry of WRAPS found in the imported entlab package;
        return the entries that do not exist in this version of it."""
        missing = []
        for owner_path, attr, name, work in WRAPS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                missing.append(f"{owner_path}.{attr}")
                continue
            self.wrap(owner, attr, name, work)
        return missing

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds and summed work.
    Self time is a span's duration minus the durations of its direct
    children."""
    child_time = defaultdict(float)
    for name, parent, start, end, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
    for index, (name, parent, start, end, work) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[index]
        row["work"] += work
    return dict(table)


def layer_metrics(table: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced run, as plain numbers."""

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    solves = get("numerics.eigensolve", "calls")
    out = {
        "numerics.eigensolve.calls": solves,
        "numerics.eigensolve.s": get("numerics.eigensolve", "s"),
        "numerics.eigensolve.attempts": get("numerics.arpack", "calls"),
        "numerics.eigensolve.arpack_self_s": get("numerics.arpack", "self_s"),
        "dmrg.matvec.calls": get("dmrg.matvec", "calls"),
        "dmrg.matvec.s": get("dmrg.matvec", "s"),
        "dmrg.matvec.per_solve": get("dmrg.matvec", "calls") / solves if solves else 0.0,
        "dmrg.matvec.gflops_computed": get("dmrg.matvec", "work") / 1e9,
        "dmrg.step.self_s": get("dmrg.step", "self_s"),
        "numerics.bessel.scan_calls": get("numerics.bessel.scan", "calls"),
        "numerics.bessel.scan_evals": get("numerics.bessel.scan", "work"),
        "numerics.bessel.scan_s": get("numerics.bessel.scan", "s"),
        "numerics.bessel.point_calls": get("numerics.bessel.point", "calls"),
        "numerics.bessel.point_s": get("numerics.bessel.point", "s"),
        "numerics.roots.calls": get("numerics.roots", "calls"),
        "numerics.roots.self_s": get("numerics.roots", "self_s"),
        "rindler.spectrum.calls": get("rindler.spectrum", "calls"),
        "rindler.spectrum.self_s": get("rindler.spectrum", "self_s"),
        "rindler.spectrum.modes": get("rindler.spectrum", "work"),
        "rindler.kruskal.calls": get("rindler.kruskal", "calls"),
        "rindler.kruskal.s": get("rindler.kruskal", "s"),
        "cli.run.self_s": get("cli.run", "self_s"),
    }
    for layer in ("quantum_state.reduced_density", "quantum_state.entropy",
                  "quantum_state.schmidt", "quantum_state.evolve",
                  "quantum_state.distance", "harmonic_chain.oracle",
                  "harmonic_chain.fock", "harmonic_chain.ops",
                  "numerics.sym_eig", "numerics.svd"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.s"] = get(layer, "s")
    below_cli = sum(row["self_s"] for name, row in table.items() if name != "cli.run")
    out["trace.layer_share"] = below_cli / wall_s if wall_s > 0 else 0.0
    return out
