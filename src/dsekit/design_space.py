"""Discrete design spaces: named parameters, configurations, enumeration.

A design space is the Cartesian product of per-parameter setting lists.
Settings keep their declaration order, which fixes both the enumeration
order of the space and the direction of greedy walks. Configurations are
plain dicts mapping parameter name to one of its settings.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def typed(value: object) -> tuple[type, object]:
    """How a value matches a setting: by type and value, so neither ``True`` nor ``1.0`` is ``1``."""
    return type(value), value


def values_getter(names: Sequence) -> Callable[[Mapping], tuple]:
    """The values of a mapping at ``names`` as a tuple, also for one name or none."""
    return itemgetter(*names) if len(names) > 1 else lambda m: tuple(m[n] for n in names)


@dataclass(frozen=True)
class DesignSpace:
    """An ordered collection of parameters plus the benchmarks to tune for."""

    parameters: tuple[Parameter, ...]
    benchmarks: tuple[str, ...]

    @cached_property
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

    @cached_property
    def config_key(self) -> Callable[[Mapping[str, Setting]], tuple[Setting, ...]]:
        """Canonical hashable form, as a function built once per space: a
        configuration's values in declaration order."""
        return values_getter(self.names)


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
    for name in dict.fromkeys(b for b in space.benchmarks if space.benchmarks.count(b) > 1):
        violations.append(f"duplicate benchmark name {name!r}")
    seen = set()
    for p in space.parameters:
        if p.name in seen:
            violations.append(f"duplicate parameter name {p.name!r}")
        seen.add(p.name)
        if not p.settings:
            violations.append(f"parameter {p.name!r} has an empty settings list")
        if len(set(p.settings)) != len(p.settings):
            violations.append(f"parameter {p.name!r} has duplicate setting values")
        texts: dict[str, Setting] = {}  # str(setting) is the text of its CSV cells
        for setting in p.settings:
            if (first := texts.setdefault(str(setting), setting)) != setting:
                text = f"settings {first!r} and {setting!r} with the same text {str(setting)!r}"
                violations.append(f"parameter {p.name!r} has {text}")
    return violations


def check_space(space: DesignSpace) -> None:
    """``run``'s and ``oracle_search``'s check: a ValueError unless valid."""
    violations = validate(space)
    if violations:
        raise ValueError("invalid space: " + "; ".join(violations))


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


def cardinality(space: DesignSpace) -> int:
    """Number of configurations in the space."""
    count = 1
    for p in space.parameters:
        count *= len(p)
    return count


def enumerate_configs(
    space: DesignSpace, fixed: Mapping[str, Setting] | None = None, start: int = 0, stop: int | None = None
) -> Iterator[Config]:
    """Stream the configurations of `space` that hold `fixed` constant, at positions
    `start` (>= 0) up to `stop` of that stream; no dict is built for a skipped one.

    The stream is lexicographic in declaration order, with the last parameter
    varying fastest; a fixed parameter takes only its fixed value. Emitted
    dicts carry the parameters in declaration order. A fixed name that is not
    a parameter raises UnknownParameterError, a fixed value that is not one of
    its parameter's settings (``typed``) ValueError.
    """
    fixed = fixed or {}
    for name, value in fixed.items():
        if typed(value) not in map(typed, space.parameter(name).settings):  # raises UnknownParameterError
            raise ValueError(f"fixed value {value!r} is not a setting of {name!r}")
    names = space.names
    settings = [(fixed[p.name],) if p.name in fixed else p.settings for p in space.parameters]
    for combo in islice(product(*settings), start, stop):
        yield dict(zip(names, combo))


def space_to_dict(space: DesignSpace) -> dict:
    return {
        "parameters": [
            {"name": p.name, "settings": list(p.settings)} for p in space.parameters
        ],
        "benchmarks": list(space.benchmarks),
    }


@contextmanager
def reading(path: str | Path):
    """Report a missing key, a wrong shape, a value that is not its type's
    (undecodable text or CSV, a number beyond the range of a float, nesting
    too deep to decode) in the file at ``path`` as a ValueError that names
    the file. An OSError, such as a missing file, passes unchanged."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError, OverflowError, RecursionError, csv.Error) as exc:
        raise ValueError(f"{path}: malformed: {exc}") from None


def load_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path`` (UTF-8), read and parsed once;
    anything else is a ValueError that names the file."""
    with reading(path):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload


def _parameter(entry: Mapping) -> Parameter:
    """A parameter entry: a string name and a JSON array of numbers and strings."""
    name = entry["name"]
    if not isinstance(name, str):
        raise ValueError(f"parameter name {name!r} must be a string")
    settings = entry["settings"]
    if not isinstance(settings, list) or not all(
        isinstance(s, (int, float, str)) and not isinstance(s, bool) for s in settings
    ):
        raise ValueError(f"parameter {name!r}: settings must be a JSON array of numbers and strings")
    return Parameter(name, tuple(settings))


def load_space(path: str | Path) -> DesignSpace:
    """Load a space definition file (JSON, UTF-8); any other file is a
    ValueError that names it."""
    data = load_json(path)
    with reading(path):
        parameters = tuple(_parameter(entry) for entry in data["parameters"])
        benchmarks = data["benchmarks"]
        if not isinstance(benchmarks, list) or not all(isinstance(b, str) for b in benchmarks):
            raise ValueError("benchmarks must be a JSON array of strings")
    return DesignSpace(parameters=parameters, benchmarks=tuple(benchmarks))


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
