"""Per-layer spans and counts, recorded from outside the program.

The traced run rebinds, for the duration of a run, the module attributes
through which one layer calls the next (``ringqkd.simulator.*``, the
keyrate objective, the relay oracle and the CLI's campaign call).  Each
wrapper records a span; a layer's self time is the time inside its spans
minus the time of the spans nested in them.  Names that no longer exist
(the open refactors rename or remove some private helpers) are skipped, and
the metrics that need them are reported as absent instead of crashing.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, layer) for every name wrapped in a traced run.
HOOKS = (
    ("ringqkd.simulator", "positions_eci_km", "geometry"),
    ("ringqkd.simulator", "gs_position_km", "geometry"),
    ("ringqkd.simulator", "visibility_fraction", "geometry"),
    ("ringqkd.simulator", "_refine_boundary", "geometry"),
    ("ringqkd.simulator", "_refine_min_zenith", "geometry"),
    ("ringqkd.simulator", "uplink_efficiency", "linkbudget"),
    ("ringqkd.simulator", "isl_efficiency", "linkbudget"),
    ("ringqkd.simulator", "to_db", "linkbudget"),
    ("ringqkd.simulator", "accumulate_link", "keyrate"),
    ("ringqkd.simulator", "run_day", "simulator"),
    ("ringqkd.simulator", "_sessions_from_state", "simulator"),
    ("ringqkd.simulator", "_effective_bins", "simulator"),
    ("ringqkd.simulator", "_bins_to_profile", "simulator"),
    ("ringqkd.simulator", "_isl_reference", "simulator"),
    ("ringqkd.keyrate", "pooled_statistics", "keyrate"),
    ("ringqkd.keyrate", "skl", "keyrate"),
    ("ringqkd.relay", "adversary_can_recover", "relay"),
    ("ringqkd.cli", "cmd_simulate", "cli"),
    ("ringqkd.cli", "run_campaign", "simulator"),
    ("ringqkd.cli", "load_scenario", "scenario"),
)

# metric -> hooked names it is computed from, as "module.attr"
PER_LAYER = {
    "geometry.propagate_s": ("simulator.positions_eci_km", "simulator.gs_position_km"),
    "geometry.refine_calls": ("simulator._refine_boundary", "simulator._refine_min_zenith"),
    "geometry.refine_s": ("simulator._refine_boundary", "simulator._refine_min_zenith"),
    "linkbudget.calls": ("simulator.uplink_efficiency", "simulator.isl_efficiency", "simulator.to_db"),
    "linkbudget.s": ("simulator.uplink_efficiency", "simulator.isl_efficiency", "simulator.to_db"),
    "simulator.self_s": ("simulator.run_day",),
    "simulator.bins": ("simulator._effective_bins",),
    "keyrate.optimize_calls": ("simulator.accumulate_link",),
    "keyrate.optimize_s": ("simulator.accumulate_link",),
    "keyrate.cache_hit_ratio": (
        "simulator.accumulate_link", "simulator._bins_to_profile", "simulator._isl_reference",
    ),
    "keyrate.evals": ("keyrate.pooled_statistics",),
    "keyrate.evals_per_call": ("keyrate.pooled_statistics", "simulator.accumulate_link"),
    "keyrate.eval_us": ("keyrate.pooled_statistics", "keyrate.skl"),
    "relay.oracle_calls": ("relay.adversary_can_recover",),
    "relay.oracle_us": ("relay.adversary_can_recover",),
    "scenario.load_s": ("cli.load_scenario",),
    "cli.write_s": ("cli.cmd_simulate", "cli.run_campaign"),
}

# counts that must repeat exactly when the same inputs run again
EXACT_COUNTS = (
    "geometry.refine_calls",
    "linkbudget.calls",
    "simulator.bins",
    "keyrate.optimize_calls",
    "keyrate.evals",
    "relay.oracle_calls",
)


def _short(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[1] + "." + attr


class Tracer:
    """Spans of the wrapped calls, folded into per-name totals as they end."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.bins = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [start, time of child spans]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, layer in HOOKS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if not callable(original):
                self.missing.append(_short(module, attr))
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(_short(module, attr), layer, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.layer_self.clear()
        self.bins = 0

    def _wrap(self, name: str, layer: str, fn):
        count_bins = name == "simulator._effective_bins"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                own = dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
            if count_bins:
                self.bins += len(result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics of the spans since the last reset; absent ones omitted."""
        c = lambda *names: sum(self.calls.get(n, 0) for n in names)  # noqa: E731
        t = lambda *names: sum(self.total.get(n, 0.0) for n in names)  # noqa: E731
        optimize_calls = c("simulator.accumulate_link")
        requests = c("simulator._bins_to_profile", "simulator._isl_reference")
        evals = c("keyrate.pooled_statistics")
        oracle = c("relay.adversary_can_recover")
        values = {
            "geometry.propagate_s": t("simulator.positions_eci_km", "simulator.gs_position_km"),
            "geometry.refine_calls": c("simulator._refine_boundary", "simulator._refine_min_zenith"),
            "geometry.refine_s": t("simulator._refine_boundary", "simulator._refine_min_zenith"),
            "linkbudget.calls": c("simulator.uplink_efficiency", "simulator.isl_efficiency", "simulator.to_db"),
            "linkbudget.s": t("simulator.uplink_efficiency", "simulator.isl_efficiency", "simulator.to_db"),
            "simulator.self_s": self.layer_self.get("simulator", 0.0),
            "simulator.bins": self.bins,
            "keyrate.optimize_calls": optimize_calls,
            "keyrate.optimize_s": t("simulator.accumulate_link"),
            "keyrate.cache_hit_ratio": 1.0 - optimize_calls / requests if requests else 0.0,
            "keyrate.evals": evals,
            "keyrate.evals_per_call": evals / optimize_calls if optimize_calls else 0.0,
            "keyrate.eval_us": t("keyrate.pooled_statistics", "keyrate.skl") / evals * 1e6 if evals else 0.0,
            "relay.oracle_calls": oracle,
            "relay.oracle_us": t("relay.adversary_can_recover") / oracle * 1e6 if oracle else 0.0,
            "scenario.load_s": t("cli.load_scenario"),
            "cli.write_s": self.layer_self.get("cli", 0.0),
        }
        return {
            name: value
            for name, value in values.items()
            if not any(n in self.missing for n in PER_LAYER[name])
        }
