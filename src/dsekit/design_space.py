"""Discrete design spaces: named parameters, configurations, enumeration.

A design space is the Cartesian product of per-parameter setting lists.
Settings keep their declaration order, which fixes both the enumeration
order of the space and the direction of greedy walks. Configurations are
plain dicts mapping parameter name to one of its settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import UnknownParameterError

Setting = int | float | str
Config = dict[str, Setting]


@dataclass(frozen=True)
class Parameter:
    """One tunable parameter and its ordered list of settings."""

    name: str
    settings: tuple[Setting, ...]

    def __len__(self) -> int:
        return len(self.settings)

    @property
    def first(self) -> Setting:
        return self.settings[0]

    @property
    def last(self) -> Setting:
        return self.settings[-1]


@dataclass(frozen=True)
class DesignSpace:
    """An ordered collection of parameters plus the benchmarks to tune for."""

    parameters: tuple[Parameter, ...]
    benchmarks: tuple[str, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise UnknownParameterError(f"unknown parameter {name!r}")

    def multi_setting_names(self) -> tuple[str, ...]:
        """Names of parameters with more than one setting, declaration order."""
        return tuple(p.name for p in self.parameters if len(p) > 1)

    def config_key(self, config: Mapping[str, Setting]) -> tuple[Setting, ...]:
        """Canonical hashable form: values in declaration order."""
        return tuple(config[p.name] for p in self.parameters)


def make_space(
    parameters: Iterable[tuple[str, Sequence[Setting]]],
    benchmarks: Iterable[str],
) -> DesignSpace:
    """Convenience constructor from (name, settings) pairs."""
    return DesignSpace(
        parameters=tuple(Parameter(name, tuple(settings)) for name, settings in parameters),
        benchmarks=tuple(benchmarks),
    )


def validate(space: DesignSpace) -> list[str]:
    """Return every invariant violation; the empty list means valid."""
    violations = []
    if not space.parameters:
        violations.append("space declares no parameters")
    if not space.benchmarks:
        violations.append("space declares no benchmarks")
    seen = set()
    for p in space.parameters:
        if p.name in seen:
            violations.append(f"duplicate parameter name {p.name!r}")
        seen.add(p.name)
        if not p.settings:
            violations.append(f"parameter {p.name!r} has an empty settings list")
        if len(set(p.settings)) != len(p.settings):
            violations.append(f"parameter {p.name!r} has duplicate setting values")
    return violations


def validation_warnings(space: DesignSpace) -> list[str]:
    """Non-fatal advisories, e.g. numeric settings not in ascending order."""
    warnings = []
    for p in space.parameters:
        numeric = all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in p.settings)
        if numeric and any(a >= b for a, b in zip(p.settings, p.settings[1:])):
            warnings.append(
                f"parameter {p.name!r}: numeric settings are not in ascending order"
            )
    return warnings


def cardinality(space: DesignSpace, subset: Iterable[str] | None = None) -> int:
    """Number of configurations spanned by `subset` (full space if omitted)."""
    if subset is None:
        names: Iterable[str] = space.names
    else:
        names = list(subset)
    count = 1
    for name in names:
        count *= len(space.parameter(name))
    return count


def enumerate_configs(
    space: DesignSpace,
    free: Sequence[str] | None = None,
    fixed: Mapping[str, Setting] | None = None,
) -> Iterator[Config]:
    """Stream all configurations over `free`, holding `fixed` constant.

    The stream is lexicographic in the order of the free list, with the last
    free parameter varying fastest. Emitted dicts always carry parameters in
    declaration order. `free` and `fixed` must be disjoint and together cover
    the whole space; with both omitted the full space is enumerated.
    """
    fixed = dict(fixed) if fixed else {}
    if free is None:
        free = [n for n in space.names if n not in fixed]
    free = list(free)

    free_set, fixed_set = set(free), set(fixed)
    if len(free_set) != len(free):
        raise ValueError("free list contains duplicate parameter names")
    overlap = free_set & fixed_set
    if overlap:
        raise ValueError(f"parameters both free and fixed: {sorted(overlap)}")
    missing = set(space.names) - free_set - fixed_set
    if missing:
        raise ValueError(f"parameters neither free nor fixed: {sorted(missing)}")
    for name in list(free_set | fixed_set):
        space.parameter(name)  # raises UnknownParameterError
    for name, value in fixed.items():
        if value not in space.parameter(name).settings:
            raise ValueError(f"fixed value {value!r} is not a setting of {name!r}")

    # Each configuration is one dict(zip(...)) in declaration order: the
    # combination, followed by the fixed values, is permuted into place by a
    # precomputed position map.
    names = space.names
    fixed_names = [name for name in names if name in fixed_set]
    position = {name: i for i, name in enumerate([*free, *fixed_names])}
    order = [position[name] for name in names]
    fixed_values = tuple(fixed[name] for name in fixed_names)
    # itemgetter of a single index returns the bare item, not a 1-tuple.
    pick = itemgetter(*order) if len(order) > 1 else tuple
    for combo in product(*(space.parameter(name).settings for name in free)):
        yield dict(zip(names, pick(combo + fixed_values)))


def space_to_dict(space: DesignSpace) -> dict:
    return {
        "parameters": [
            {"name": p.name, "settings": list(p.settings)} for p in space.parameters
        ],
        "benchmarks": list(space.benchmarks),
    }


def space_from_dict(data: Mapping) -> DesignSpace:
    try:
        parameters = tuple(
            Parameter(str(entry["name"]), tuple(entry["settings"]))
            for entry in data["parameters"]
        )
        benchmarks = tuple(str(b) for b in data["benchmarks"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed space definition: {exc}") from exc
    return DesignSpace(parameters=parameters, benchmarks=benchmarks)


def load_space(path: str | Path) -> DesignSpace:
    """Load a space definition file (JSON, UTF-8)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    return space_from_dict(data)


def save_space(space: DesignSpace, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(space_to_dict(space), indent=2) + "\n", encoding="utf-8"
    )


def shipped_space_path(name: str) -> Path:
    """Path of a space definition file bundled with the package.

    Available names: parsec-small, parsec-large, splash2-small, splash2-large.
    """
    path = Path(__file__).parent / "spaces" / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"no shipped space named {name!r}")
    return path


def load_shipped_space(name: str) -> DesignSpace:
    return load_space(shipped_space_path(name))
