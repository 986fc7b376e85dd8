"""Spans around calls into casimir_kit's public functions, and their summary.

The tracer lives in the benchmark, not in the package: it replaces each
function listed in ``WRAPPED`` by a timing wrapper, both at its home module
and under every name another casimir_kit module holds it by (``core`` imports
``partial_sum_inverse_powers`` by name; ``cli`` dispatches through the
``_HANDLERS`` dict).  Spans stay in memory and are written out once, at the
end of the child process.  The harness turns them into per-layer metrics
with :func:`layer_metrics`.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# Functions timed per module.  ``cli`` also gets every ``cmd_*`` handler, and
# the parser returned by ``build_parser`` gets its ``parse_args`` timed.  A
# name missing from a later version of the package is skipped, and the metric
# built from it reads 0.
WRAPPED = {
    "cli": ("main", "build_parser"),
    "output": ("resolve_config", "default_config_file", "load_config_file",
               "render_envelope"),
    "core": ("mode_state", "energy_per_area_closed", "force_per_area",
             "energy_per_area_series", "convergence_report"),
    "series": ("partial_sum_inverse_powers", "euler_maclaurin_sum",
               "exponential_cutoff_finite_part"),
    "paradox": ("cosmological_crossover", "crossover_by_bisection",
                "situation_one", "situation_two"),
    "units": ("parse_length",),
}

LAYERS = tuple(WRAPPED)

PARSE_ARGS = "cli.parse_args"


class Tracer:
    """Records ``(op, name, parent, t0_ns, t1_ns, attr)`` spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        self.op = 0
        self.last_render = None  # (function, args, kwargs) of the last render

    def _span(self, name: str, fn, attr_of=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [self.op, name_id, stack[-1] if stack else -1, 0, 0, None]
            spans.append(record)
            stack.append(index)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if attr_of is not None:
                record[5] = attr_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _attr_of(self, name: str, fn):
        if name == "series.partial_sum_inverse_powers":
            return lambda args, kwargs, result: [
                float(kwargs.get("s", args[0] if args else 0.0)),
                int(kwargs.get("N", args[1] if len(args) > 1 else 0))]
        if name == "output.render_envelope":
            def render_attr(args, kwargs, result):
                self.last_render = (fn, args, kwargs)
                envelope, config = args[0], args[1]
                rows = envelope.results.get("rows") or ()
                return [config.output_format.value,
                        len(result.encode("utf-8")), len(rows)]
            return render_attr
        if name == "cli.build_parser":
            def parser_attr(args, kwargs, parser):
                parser.parse_args = self._span(PARSE_ARGS, parser.parse_args)
                return None
            return parser_attr
        return None

    def install(self) -> None:
        """Wrap every listed function wherever casimir_kit refers to it."""
        if self._swaps:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if key == "casimir_kit" or key.startswith("casimir_kit.")]
        replace = {}
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"casimir_kit.{layer}")
            if module is None:
                continue
            if layer == "cli":
                names = names + tuple(sorted(
                    n for n in vars(module) if n.startswith("cmd_")))
            for short in names:
                fn = getattr(module, short, None)
                if callable(fn):
                    name = f"{layer}.{short}"
                    replace[id(fn)] = self._span(name, fn, self._attr_of(name, fn))
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    self._swaps.append((module, key, value, None))
                    setattr(module, key, replace[id(value)])
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in replace:
                            self._swaps.append((value, dkey, dvalue, True))
                            value[dkey] = replace[id(dvalue)]

    def uninstall(self) -> None:
        """Put every original function back."""
        for holder, key, original, in_dict in reversed(self._swaps):
            if in_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._swaps.clear()

    def render_peak_bytes(self) -> int:
        """tracemalloc peak of repeating the last render, outside any span.

        Repeating the call keeps tracemalloc's cost out of the timed spans;
        the envelope exists already, so the peak is the render's own.
        """
        if self.last_render is None:
            return 0
        fn, args, kwargs = self.last_render
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def parse_importtime(stderr: str, begin: str, end: str) -> dict:
    """Import figures from ``-X importtime`` lines between two marker lines."""
    total_us = 0
    numpy_us = 0
    self_us = {layer: 0 for layer in LAYERS}
    loaded = 0
    inside = False
    for line in stderr.splitlines():
        if line == begin:
            inside = True
            continue
        if line == end:
            break
        if not inside or not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        loaded += 1
        if depth == 0:
            total_us += cumulative
        if name == "numpy":
            numpy_us = cumulative
        layer = name[len("casimir_kit."):] if name.startswith("casimir_kit.") else None
        if layer in self_us:
            self_us[layer] = own
    figures = {"import.total_ms": total_us / 1e3,
               "import.numpy_ms": numpy_us / 1e3,
               "import.modules_loaded": loaded}
    for layer, own in self_us.items():
        figures[f"import.self_ms.{layer}"] = own / 1e3
    return figures


# Metric prefix -> the spans it adds up; ``cli.handler`` takes every ``cmd_*``.
GROUPS = {
    "cli.parse": ("cli.build_parser", PARSE_ARGS),
    "cli.main": ("cli.main",),
    "output.config": ("output.resolve_config", "output.default_config_file",
                      "output.load_config_file"),
    "core.mode_state": ("core.mode_state",),
    "core.closed_form": ("core.energy_per_area_closed", "core.force_per_area"),
    "core.energy_series": ("core.energy_per_area_series",),
    "core.convergence_report": ("core.convergence_report",),
    "series.partial_sum": ("series.partial_sum_inverse_powers",),
    "series.euler_maclaurin": ("series.euler_maclaurin_sum",),
    "series.cutoff": ("series.exponential_cutoff_finite_part",),
    "paradox.crossover": ("paradox.cosmological_crossover",
                          "paradox.crossover_by_bisection"),
    "paradox.scenario": ("paradox.situation_one", "paradox.situation_two"),
    "units.parse_length": ("units.parse_length",),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}


def layer_metrics(dumps: list[dict], ops: int) -> tuple[dict, dict]:
    """Per-op layer metrics and per-layer self times from span dumps.

    Each dump is one process's ``Tracer.dump()``; ``ops`` is the number of
    operations they cover.  A group's time is the inclusive time of its
    outermost spans, so a ``convergence_report`` span also counts in
    ``core.energy_series_ms`` through the calls it makes.
    """
    ops = max(ops, 1)
    calls = {group: 0 for group in list(GROUPS) + ["cli.handler"]}
    ms = dict.fromkeys(calls, 0.0)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    render_ms = {"json": 0.0, "csv": 0.0, "text": 0.0}
    out_bytes = out_rows = terms = unique = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        group = [("cli.handler" if name.startswith("cli.cmd_")
                  else _GROUP_OF.get(name)) for name in names]
        child_ns = [0] * len(spans)
        largest_n: dict[tuple[int, float], int] = {}
        for index, (op, name_id, parent, t0, t1, attr) in enumerate(spans):
            duration = t1 - t0
            if parent >= 0:
                child_ns[parent] += duration
            mine = group[name_id]
            if mine is not None:
                ancestor = parent
                while ancestor >= 0 and group[spans[ancestor][1]] != mine:
                    ancestor = spans[ancestor][2]
                if ancestor < 0:
                    calls[mine] += 1
                    ms[mine] += duration / 1e6
            if attr is None:
                continue
            if mine == "series.partial_sum":
                s, N = attr
                terms += N
                largest_n[op, s] = max(largest_n.get((op, s), 0), N)
            else:  # output.render_envelope
                fmt, nbytes, nrows = attr
                render_ms[fmt] += duration / 1e6
                out_bytes += nbytes
                out_rows += nrows
        unique += sum(largest_n.values())
        for index, span in enumerate(spans):
            layer = names[span[1]].split(".", 1)[0]
            self_ms[layer] += (span[4] - span[3] - child_ns[index]) / 1e6

    metrics = {
        "cli.parse_ms": ms["cli.parse"] / ops,
        "cli.handler_ms": ms["cli.handler"] / ops,
        "cli.main_ms": ms["cli.main"] / ops,
        "output.config_ms": ms["output.config"] / ops,
        "output.render_ms.json": render_ms["json"] / ops,
        "output.render_ms.csv": render_ms["csv"] / ops,
        "output.render_ms.text": render_ms["text"] / ops,
        "output.bytes": out_bytes / ops,
        "output.rows": out_rows / ops,
        "core.mode_state_calls": calls["core.mode_state"] / ops,
        "core.mode_state_ms": ms["core.mode_state"] / ops,
        "core.closed_form_calls": calls["core.closed_form"] / ops,
        "core.closed_form_ms": ms["core.closed_form"] / ops,
        "core.energy_series_ms": ms["core.energy_series"] / ops,
        "core.convergence_report_ms": ms["core.convergence_report"] / ops,
        "series.partial_sum_calls": calls["series.partial_sum"] / ops,
        "series.terms_summed": terms / ops,
        "series.partial_sum_ms": ms["series.partial_sum"] / ops,
        "series.ns_per_term": ms["series.partial_sum"] * 1e6 / terms if terms else 0.0,
        # The largest N per exponent in an op over the terms summed in it;
        # no terms summed means none were wasted.
        "series.unique_term_ratio": unique / terms if terms else 1.0,
        "series.euler_maclaurin_ms": ms["series.euler_maclaurin"] / ops,
        "series.cutoff_ms": ms["series.cutoff"] / ops,
        "paradox.crossover_ms": ms["paradox.crossover"] / ops,
        "paradox.scenario_ms": ms["paradox.scenario"] / ops,
        "units.parse_length_ms": ms["units.parse_length"] / ops,
    }
    return metrics, {layer: value / ops for layer, value in self_ms.items()}
