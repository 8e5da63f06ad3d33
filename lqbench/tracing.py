"""Spans around the calls into each package module, and the per-layer
metrics derived from them.

The tracer replaces a public function at every name through which a caller
looks it up (``schemes.discretize``, ``cli.synthesize_for_scheme``,
``lin_ops.solve`` as ``synthesis`` sees it, ...) and puts the originals
back afterwards.  Spans are kept in memory as (name, start, end, parent,
op id) and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

import functools
import importlib
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

PACKAGE = "delay_lqgame"

# Functions that get a span, by defining module.  Names missing from the
# package are skipped, so the tracer keeps working when one is renamed.
TRACED = {
    "cli": ("main",),
    "model": ("load_config", "discretize"),
    "lin_ops": ("mat_exp", "exp_integral", "solve"),
    "synthesis": ("synthesize", "synthesize_two", "synthesize_multi",
                  "synthesize_single_delayed", "synthesize_delay_free_game"),
    "simulate": ("rollout", "nash_deviation_check", "write_trajectory_csv"),
    "schemes": ("synthesize_for_scheme", "run_scheme", "sweep_delays",
                "compare_schemes"),
}

# Per-layer groups: metric prefix -> span names it covers.
GROUPS = {
    "cli.main": ("cli.main",),
    "model.load_config": ("model.load_config",),
    "model.discretize": ("model.discretize",),
    "lin_ops.solve": ("lin_ops.solve",),
    "lin_ops.expm": ("lin_ops.mat_exp", "lin_ops.exp_integral"),
    "synthesis": tuple(f"synthesis.{f}" for f in TRACED["synthesis"]),
    "simulate.rollout": ("simulate.rollout",),
    "simulate.nash_deviation_check": ("simulate.nash_deviation_check",),
    "simulate.write_trajectory_csv": ("simulate.write_trajectory_csv",),
    "schemes.run_scheme": ("schemes.run_scheme",),
    "schemes.sweep_delays": ("schemes.sweep_delays",),
    "schemes.compare_schemes": ("schemes.compare_schemes",),
}


def _plant_key(plant):
    return (plant.A.tobytes(), tuple(b.tobytes() for b in plant.B),
            tuple(plant.delays), plant.h)


class Tracer:
    """Records spans while installed; ``op`` and ``cycle`` tag new spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.cycle_of_op = {}
        self.steps = defaultdict(int)        # cycle -> synthesis steps
        self.discretized = defaultdict(set)  # op -> distinct plants
        self._stack = []
        self._patched = []

    def start_op(self, cycle):
        self.op += 1
        self.cycle_of_op[self.op] = cycle

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_synthesis = name.startswith("synthesis.")
        on_discretize = name == "model.discretize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if on_synthesis:
                schedule = result[0] if isinstance(result, tuple) else result
                self.steps[self.cycle_of_op[self.op]] += schedule.horizon
            elif on_discretize:
                self.discretized[self.op].add(_plant_key(args[0]))
            return result
        return traced

    def install(self):
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
        for module_name, functions in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{op}\n")

    def layer_metrics(self, cycles):
        """Per-layer metrics, per workload cycle.

        Counts are checked to be identical in every cycle; times are the
        mean over the traced cycles.
        """
        spans = self.spans
        group_of = {span: group for group, names in GROUPS.items()
                    for span in names}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(lambda: defaultdict(int))   # group -> cycle -> n
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(spans):
            group = group_of.get(name)
            if group is None:
                continue
            cycle = self.cycle_of_op[op]
            calls[group][cycle] += 1
            self_time[group] += end - start - child_time[index]
            # busy time counts a group's outermost spans only
            ancestor = parent
            while ancestor >= 0 and group_of.get(spans[ancestor][0]) != group:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[group] += end - start

        def per_cycle_count(by_cycle, label):
            counts = {by_cycle.get(c, 0) for c in range(cycles)}
            if len(counts) != 1:
                raise RuntimeError(f"{label} differs between cycles: "
                                   f"{sorted(counts)}")
            return counts.pop()

        metrics = {}
        for group in GROUPS:
            metrics[f"{group}.calls"] = per_cycle_count(calls[group], group)
            metrics[f"{group}.busy_s"] = busy[group] / cycles
            metrics[f"{group}.self_s"] = self_time[group] / cycles
        metrics["synthesis.steps"] = per_cycle_count(self.steps,
                                                     "synthesis steps")
        useful = sum(len(keys) for keys in self.discretized.values())
        total = sum(calls["model.discretize"].values())
        metrics["model.discretize.useful_ratio"] = (useful / total if total
                                                    else 0.0)
        return metrics


# ---------------------------------------------------------------------------
# import time, from ``python -X importtime`` in a fresh process
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(text):
    """Seconds spent importing numpy, scipy and the package itself.

    Each module's self time goes to the nearest of numpy, scipy and the
    package among itself and the modules that imported it, so the three
    shares do not overlap: numpy modules that scipy pulls in count for
    numpy, and standard-library modules the package pulls in count for the
    package.  The total is the cumulative time of the package's outermost
    entries.
    """
    stack = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cum_us, indent, name = match.groups()
        children = []
        while stack and stack[-1][0] > len(indent):
            children.append(stack.pop())
        stack.append((len(indent), name, int(self_us), int(cum_us), children))

    owners = ("numpy", "scipy", PACKAGE)
    share = dict.fromkeys(owners, 0)
    total = 0

    def walk(node, owner):
        nonlocal total
        _, name, self_us, cum_us, children = node
        top = name.split(".")[0]
        if top == PACKAGE and owner != PACKAGE:
            total += cum_us
        if top in owners:
            owner = top
        if owner is not None:
            share[owner] += self_us
        for child in children:
            walk(child, owner)

    for root in stack:
        walk(root, None)
    return {
        "import.numpy_s": share["numpy"] / 1e6,
        "import.scipy_s": share["scipy"] / 1e6,
        "import.delay_lqgame_self_s": share[PACKAGE] / 1e6,
        "import.delay_lqgame_total_s": total / 1e6,
    }


def measure_imports(env, cwd, repeats):
    """Median import metrics over fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import {PACKAGE}.cli"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=env, cwd=cwd,
            timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
