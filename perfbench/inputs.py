"""Seeded benchmark inputs: space files and weight vectors.

Every input is a space with the nine parameters of the shipped parsec-large
space (86,400 configurations) in a seed-shuffled declaration order, over the
three benchmarks the synthetic evaluator models, plus a weight vector
``power=w,time=1-w``. The shipped spaces are not used: their benchmark names
are not synthetic profiles, and mapping them all onto one profile would
repeat identical work under eight names.

One run uses ``count`` inputs. Input k draws w uniformly from the k-th of
``count`` equal strata of [0.05, 0.95], so every run covers the whole weight
range. The work a search does is a step function of w, so stratifying keeps
the work per run close across seeds while each input stays seeded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PARAMETERS = (
    ("cores", (2, 4, 8)),
    ("freq", (1700, 2200, 2800, 3200)),
    ("l1i", (8, 16, 32, 64, 128)),
    ("l1d", (8, 16, 32, 64, 128)),
    ("l2", (256, 512, 1024)),
    ("l3", (2048, 4096, 8192)),
    ("width", (2, 4, 8, 16)),
    ("rob", (32, 64, 128, 256)),
    ("bpred", ("BPredX", "BPredX2")),
)
BENCHMARKS = ("synth-blk", "synth-fluid", "synth-ocean")
W_LOW, W_HIGH = 0.05, 0.95

#: Seeds used while the benchmark was built and tuned.
DEFAULT_SEEDS = tuple(range(1, 11))
#: Never used while tuning; use it to check a later performance claim.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Input:
    space_path: Path
    order: tuple[str, ...]
    power_weight: float

    @property
    def weights(self) -> str:
        """The ``--weights`` flag value; the two weights sum to exactly 1."""
        w = self.power_weight
        return f"power={w:.4f},time={1 - w:.4f}"


def make_inputs(seed: int, count: int, out_dir: Path) -> list[Input]:
    """Write ``count`` space files for ``seed`` under ``out_dir``."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for k in range(count):
        params = list(PARAMETERS)
        rng.shuffle(params)
        width = (W_HIGH - W_LOW) / count
        w = round(W_LOW + width * (k + rng.random()), 4)
        path = out_dir / f"space{k}.json"
        doc = {
            "parameters": [{"name": n, "settings": list(s)} for n, s in params],
            "benchmarks": list(BENCHMARKS),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        inputs.append(Input(path, tuple(n for n, _ in params), w))
    return inputs
