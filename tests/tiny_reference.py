"""Standalone re-derivation of the TINY fixture trace, by brute force.

This script is deliberately independent of the package under test: it
transcribes the four search phases as literal loops over explicit data and
derives every frozen number used by the test suite (significance values,
partition, per-phase winners, evaluation counts, oracle gap, Pareto front).
Run it directly to print the trace:

    python tests/tiny_reference.py

Nothing here may import from the installed package.
"""

from __future__ import annotations

import math
from itertools import product

# The TINY space: two parameters in declaration order, one benchmark.
PARAMS = [("A", [1, 2, 4]), ("B", [100, 200])]
BENCHMARK = "t"
WEIGHTS = {"power": 0.1, "time": 0.9}


def raw_metrics(config):
    a, b = config["A"], config["B"]
    return {"power": 0.5 * a + 0.002 * b, "time": 24.0 / a + 200.0 / b}


class CountingEvaluator:
    """Memoizes raw_metrics and tracks unique/total evaluation counts."""

    def __init__(self):
        self.cache = {}
        self.total = 0

    def __call__(self, config):
        self.total += 1
        key = tuple(config[name] for name, _ in PARAMS)
        if key not in self.cache:
            self.cache[key] = raw_metrics(config)
        return self.cache[key]

    @property
    def unique(self):
        return len(self.cache)


def objective(metrics, maxima, weights=WEIGHTS):
    return sum(weights[m] * metrics[m] / maxima[m] for m in weights)


def phase1(evaluator):
    """One-shot optimization: first/last settings per parameter, rest pinned first."""
    first = {name: settings[0] for name, settings in PARAMS}
    records = [dict(first)]
    last_configs = {}
    for name, settings in PARAMS:
        cfg = dict(first)
        cfg[name] = settings[-1]
        last_configs[name] = cfg
        records.append(cfg)

    raw = [evaluator(cfg) for cfg in records]
    maxima = {
        m: max(r[m] for r in raw) for m in raw[0]
    }

    f_first = objective(evaluator(first), maxima)
    significance, best = {}, {}
    for name, settings in PARAMS:
        f_last = objective(evaluator(last_configs[name]), maxima)
        d = f_last - f_first
        significance[name] = d
        best[name] = settings[0] if d > 0 else settings[-1]
    return significance, best, maxima


def phase2(significance, threshold):
    """Set partitioning under the exhaustive-search threshold."""
    order = sorted(
        (name for name, _ in PARAMS),
        key=lambda n: -abs(significance[n]),
    )
    sizes = dict((name, len(settings)) for name, settings in PARAMS)
    exhaustive, prod = [], 1
    for name in order:
        if prod * sizes[name] <= threshold:
            prod *= sizes[name]
            exhaustive.append(name)
        else:
            break
    remaining = [n for n in order if n not in exhaustive]
    n_greedy = math.ceil(len(remaining) / 2)
    greedy = remaining[:n_greedy]
    oneshot = remaining[n_greedy:]
    return exhaustive, greedy, oneshot, prod


def phase3(evaluator, exhaustive, best, maxima):
    """Exhaustive search over the E-set, everything else pinned to best."""
    free = [(name, settings) for name, settings in PARAMS if name in exhaustive]
    f_best = math.inf
    trace = []
    for combo in product(*(settings for _, settings in free)):
        cfg = dict(best)
        for (name, _), value in zip(free, combo):
            cfg[name] = value
        f = objective(evaluator(cfg), maxima)
        trace.append((dict(cfg), f))
        if f < f_best:
            f_best = f
            best = dict(cfg)
    return best, f_best, trace


def phase4(evaluator, greedy, significance, best, maxima):
    """Greedy directional walks over the G-set, one parameter at a time."""
    f_best = math.inf
    trace = []
    for name in greedy:
        settings = dict(PARAMS)[name]
        walk = list(settings) if significance[name] > 0 else list(reversed(settings))
        for value in walk:
            cfg = dict(best)
            cfg[name] = value
            f = objective(evaluator(cfg), maxima)
            trace.append((dict(cfg), f))
            if f < f_best:
                f_best = f
                best = dict(cfg)
            else:
                break
    return best, f_best, trace


def full_space():
    names = [name for name, _ in PARAMS]
    for combo in product(*(settings for _, settings in PARAMS)):
        yield dict(zip(names, combo))


def oracle(maxima):
    """Brute-force optimum over all six configurations."""
    best, f_best = None, math.inf
    for cfg in full_space():
        f = objective(raw_metrics(cfg), maxima)
        if f < f_best:
            best, f_best = cfg, f
    return best, f_best


def pareto_front():
    """Non-dominated subset of all six raw metric vectors, by pairwise check."""
    points = [(cfg, raw_metrics(cfg)) for cfg in full_space()]

    def dominates(a, b):
        return all(a[m] <= b[m] for m in a) and any(a[m] < b[m] for m in a)

    return [
        (cfg, m)
        for cfg, m in points
        if not any(dominates(m2, m) for _, m2 in points if m2 is not m)
    ]


def run(threshold=3):
    evaluator = CountingEvaluator()
    significance, best, maxima = phase1(evaluator)
    exhaustive, greedy, oneshot, num_e = phase2(significance, threshold)
    best, f3, trace3 = phase3(evaluator, exhaustive, best, maxima)
    best, f4, trace4 = phase4(evaluator, greedy, significance, best, maxima)
    return {
        "significance": significance,
        "maxima": maxima,
        "partition": (exhaustive, greedy, oneshot, num_e),
        "phase3": trace3,
        "phase4": trace4,
        "best": best,
        "f_best": f4,
        "unique": evaluator.unique,
        "total_requests": evaluator.total,
    }


def main():
    result = run()
    maxima = result["maxima"]
    print("phase-1 maxima:", maxima)
    print("significance D:", {k: round(v, 6) for k, v in result["significance"]. items()})
    print("partition (E, G, O, num_E):", result["partition"])
    print("phase-3 trace:")
    for cfg, f in result["phase3"]:
        print("   ", cfg, round(f, 6))
    print("phase-4 trace:")
    for cfg, f in result["phase4"]:
        print("   ", cfg, round(f, 6))
    print("best:", result["best"], "F =", round(result["f_best"], 6))
    print("unique evaluations:", result["unique"], "of", 3 * 2)
    print("total requests:", result["total_requests"])

    oracle_best, oracle_f = oracle(maxima)
    print("oracle best:", oracle_best, "F =", round(oracle_f, 6))
    for metric in ("power", "time"):
        v_dse = raw_metrics(result["best"])[metric]
        v_exh = raw_metrics(oracle_best)[metric]
        print(f"gap {metric}: {100.0 * (v_dse - v_exh) / v_exh:+.4f}%")
    print("explored: %.4f%%" % (100.0 * result["unique"] / 6))
    print("speedup: %.4f" % (6 / result["unique"]))

    front = pareto_front()
    print("pareto front (%d of 6 points):" % len(front))
    for cfg, metrics in front:
        f = objective(metrics, maxima)
        print("   ", cfg, {k: round(v, 4) for k, v in metrics.items()}, "F =", round(f, 6))

    print("objective example F(A=4,B=100):",
          round(objective(raw_metrics({"A": 4, "B": 100}), maxima), 6))


if __name__ == "__main__":
    main()
