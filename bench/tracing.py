"""Layer tracing from outside the package.

``Tracer.install`` replaces the public names flexfunc's modules call each
other through with timing wrappers and ``Tracer.uninstall`` puts the
originals back; nothing in ``src/`` changes.  Each wrapped call records a
span (name, layer, job, parent, start, end, self time).  Boundaries that a
job calls thousands of times are aggregated into one count and total per
parent span instead.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "model",
    "ispline",
    "dynamics",
    "rng",
    "bilinear",
    "generator",
    "equilibria",
    "stability",
    "certificates",
)

# Names called inside their own module, or through a module object
# (``rng.path_normals``, ``bilinear.mean_ode``), which the scan of
# cross-module imports in ``install`` cannot see.
OWN_NAMES = {
    "cli": ("main",),
    "model": ("price_response", "validate"),
    "rng": ("path_normals",),
    "bilinear": ("mean_ode", "demo_paths", "strong_convergence_study", "write_paths_csv"),
    "generator": ("evolve_pdf",),
    "stability": ("certify_stable",),
}
METHODS = (
    ("ispline", "ISplineBasis", "basis_row"),
    ("dynamics", "Ensemble", "summary"),
    ("dynamics", "Ensemble", "to_csv"),
    ("dynamics", "Trajectory", "to_csv"),
    ("generator", "DistributionSeries", "to_csv"),
    ("bilinear", "ConvergenceStudy", "to_csv"),
)
# Output writers count as cli work wherever they are defined.
WRITERS = frozenset(
    {
        "dynamics.Ensemble.to_csv",
        "dynamics.Trajectory.to_csv",
        "generator.DistributionSeries.to_csv",
        "bilinear.ConvergenceStudy.to_csv",
        "generator.write_stationary_csv",
        "bilinear.write_paths_csv",
    }
)
# Called thousands of times per job: aggregated per parent span.
HOT = frozenset(
    {"model.price_response", "model.demand", "ispline.ISplineBasis.basis_row", "rng.path_normals"}
)

# per-layer time metrics: name -> boundaries whose self times it sums
TIME_METRICS = {
    "cli.write_s": tuple(sorted(WRITERS)),
    "model.validate_s": ("model.validate",),
    "model.price_response_s": ("model.price_response",),
    "model.demand_s": ("model.demand",),
    "ispline.basis_row_s": ("ispline.ISplineBasis.basis_row",),
    "dynamics.integrate_ode_s": ("dynamics.integrate_ode",),
    "dynamics.simulate_sde_s": ("dynamics.simulate_sde",),
    "dynamics.summary_s": ("dynamics.Ensemble.summary",),
    "rng.path_normals_s": ("rng.path_normals",),
    "bilinear.convergence_s": ("bilinear.strong_convergence_study",),
    "generator.build_s": ("generator.build_generator",),
    "generator.stationary_s": ("generator.stationary_pdf", "generator.stationary_moments"),
    "generator.spectral_gap_s": ("generator.spectral_gap",),
    "generator.evolve_s": ("generator.evolve_pdf",),
    "equilibria.certify_s": ("equilibria.certify_deterministic",),
    "stability.certify_s": ("stability.certify_bounded", "stability.certify_stable"),
    "stability.max_stable_noise_s": ("stability.max_stable_noise",),
}
CALL_METRICS = {
    "model.price_response_calls": "model.price_response",
    "model.demand_calls": "model.demand",
    "ispline.basis_rows": "ispline.ISplineBasis.basis_row",
    "dynamics.summary_calls": "dynamics.Ensemble.summary",
    "rng.streams": "rng.path_normals",
    "generator.builds": "generator.build_generator",
    "generator.spectral_gap_calls": "generator.spectral_gap",
    "generator.evolve_calls": "generator.evolve_pdf",
}
# counts the hooks below derive from call arguments or results
HOOK_COUNTS = (
    "cli.jobs",
    "model.price_response_points",
    "dynamics.ode_steps",
    "dynamics.sde_path_steps",
    "dynamics.state_bytes",
    "rng.normals",
    "generator.implicit_steps",
    "stability.noise_probes",
)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _implicit_steps(times, dt) -> int:
    """Sub-steps ``evolve_pdf`` takes for ``times`` (its own stepping rule)."""
    times = np.asarray(times, dtype=float)
    if dt is None:
        dt = times[-1] / 1000.0 if times[-1] > 0.0 else 1.0
    spans = np.diff(np.concatenate(([0.0], times)))
    spans = spans[spans > 0.0]
    return int(np.sum(np.maximum(1, np.ceil(spans / dt - 1e-12))))


class Tracer:
    def __init__(self) -> None:
        self.job = "setup"
        self.spans: list[dict] = []
        self.agg: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.distinct_u: set[float] = set()
        self.series: set[tuple] = set()
        self._stack: list[list] = []  # open frames: [start, child time, span id, name]
        self._patches: list[tuple] = []
        self._hooks = {
            "cli.main": self._on_main,
            "model.price_response": self._on_price_response,
            "dynamics.integrate_ode": self._on_integrate_ode,
            "dynamics.simulate_sde": self._on_simulate_sde,
            "rng.path_normals": self._on_path_normals,
            "generator.evolve_pdf": self._on_evolve_pdf,
            "stability.certify_stable": self._on_certify_stable,
        }

    # -- counters -------------------------------------------------------
    def _on_main(self, args, kwargs, result):
        self.counts["cli.jobs"] += 1

    def _on_price_response(self, args, kwargs, result):
        u = np.ravel(_arg(args, kwargs, 1, "u"))
        self.counts["model.price_response_points"] += u.size
        self.distinct_u.update(u.tolist())

    def _on_integrate_ode(self, args, kwargs, result):
        self.counts["dynamics.ode_steps"] += len(result.times) - 1

    def _on_simulate_sde(self, args, kwargs, result):
        n_paths, n_times = result.states.shape
        self.counts["dynamics.sde_path_steps"] += n_paths * (n_times - 1)
        self.counts["dynamics.state_bytes"] += n_paths * n_times * 8

    def _on_path_normals(self, args, kwargs, result):
        self.counts["rng.normals"] += int(_arg(args, kwargs, 2, "n"))

    def _on_evolve_pdf(self, args, kwargs, result):
        gen, pdf0, times = (_arg(args, kwargs, i, k) for i, k in enumerate(("gen", "pdf0", "times")))
        dt = _arg(args, kwargs, 3, "dt")
        self.counts["generator.implicit_steps"] += _implicit_steps(times, dt)
        times = tuple(np.ravel(times).tolist())
        self.series.add((self.job, id(gen), np.asarray(pdf0).tobytes(), times, dt))

    def _on_certify_stable(self, args, kwargs, result):
        if self._stack and self._stack[-1][3] == "stability.max_stable_noise":
            self.counts["stability.noise_probes"] += 1

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn):
        layer = "cli" if name in WRITERS else name.split(".", 1)[0]
        hot = name in HOT
        hook = self._hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            if hot:
                sid = None
            else:
                sid = len(self.spans)
                self.spans.append(None)  # reserve the id; filled on return
            frame = [perf_counter(), 0.0, sid, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                if hot:
                    entry = self.agg[(parent, name, layer, self.job)]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s
                else:
                    self.spans[sid] = {
                        "id": sid,
                        "name": name,
                        "layer": layer,
                        "job": self.job,
                        "parent": parent,
                        "start": frame[0],
                        "end": end,
                        "self_s": self_s,
                    }
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"flexfunc.{name}") for name in LAYERS}
        layer_of = {mod.__name__: name for name, mod in mods.items()}
        wrappers: dict = {}

        def wrapper_for(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            return wrappers[fn]

        for layer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                home = layer_of.get(value.__module__)
                if home is None:
                    continue
                if home != layer or attr in OWN_NAMES.get(layer, ()):
                    self._patch(mod, attr, wrapper_for(value, f"{home}.{value.__name__}"))
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[attr]
            self._patch(cls, attr, wrapper_for(fn, f"{layer}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def _records(self):
        """(name, layer, job, calls, self_s) over spans and aggregates."""
        for s in self.spans:
            yield s["name"], s["layer"], s["job"], 1, s["self_s"]
        for (_, name, layer, job), (calls, _, self_s) in self.agg.items():
            yield name, layer, job, calls, self_s

    def metrics(self, window_s: float) -> dict[str, float]:
        """Per-layer metrics; ``window_s`` is the traced pass's wall time.

        ``cli.main`` spans every job, so its own self time (argument
        parsing, dispatch and whatever it calls that no span wraps) counts
        as unattributed: a boundary missing from the wrap list lowers
        ``trace.coverage`` instead of disappearing into the cli layer.
        """
        self_by_name: Counter = Counter()
        calls_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        job_self = 0.0
        for name, layer, job, calls, self_s in self._records():
            self_by_name[name] += self_s
            calls_by_name[name] += calls
            self_by_layer[layer] += self_s
            if job != "setup" and name != "cli.main":
                job_self += self_s
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_by_name[n] for n in names)
        for metric, name in CALL_METRICS.items():
            out[metric] = calls_by_name[name]
        for metric in HOOK_COUNTS:
            out[metric] = self.counts[metric]
        distinct = len(self.distinct_u)
        out["model.price_points_per_distinct_u"] = (
            self.counts["model.price_response_points"] / distinct if distinct else 0.0
        )
        series = len(self.series)
        out["generator.evolve_calls_per_series"] = (
            calls_by_name["generator.evolve_pdf"] / series if series else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        out["trace.unattributed_s"] = window_s - job_self
        out["trace.coverage"] = job_self / window_s
        return out

    def dump(self, path) -> None:
        aggregates = [
            {"parent": parent, "name": name, "layer": layer, "job": job,
             "calls": calls, "total_s": total, "self_s": self_s}
            for (parent, name, layer, job), (calls, total, self_s) in self.agg.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "aggregates": aggregates}, fh)
