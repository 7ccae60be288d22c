"""Every run directory the search writes loads back: ``load_run`` replays the
search over the directory's own log and returns the search's own results,
with the error texts ``result.json`` stores. A log cell that no search could
have written is refused on its own line, for its own cause."""

import csv
import json
import random
import tempfile
from pathlib import Path

import pytest

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit.artifacts import EVALS_FILE, RESULT_FILE, load_run
from dsekit.cli import main
from dsekit.design_space import enumerate_configs, make_space, save_space
from dsekit.evaluators import TableEvaluator
from dsekit.explorer import run as run_search

#: Numbers and strings, some of which need quoting in a CSV cell.
SETTINGS = st.one_of(st.integers(-3, 40), st.sampled_from([0.5, 2.0, 1e-3, 2800.0]), st.text('ab ,"', max_size=3))
#: Few values, so that objectives tie.
METRIC_VALUES = [0.25, 1.0, 2.5, 7.0, 123.456]
WEIGHTS = ["power=0.0,time=1.0", "power=0.1,time=0.9", "power=0.5,time=0.5", "power=1.0,time=0.0"]


@st.composite
def experiments(draw):
    """A space, the rows of a table of it and a ``run`` command line.
    A benchmark's table may lack rows, any or only those the one-shot phase
    never requests, or answer 0 for one metric in every row."""
    parameters = draw(st.lists(
        st.lists(SETTINGS, min_size=1, max_size=4, unique_by=(str, lambda setting: setting)), min_size=1, max_size=4,
    ))
    space = make_space([(f"p{i}", settings) for i, settings in enumerate(parameters)], [f"b{i}" for i in range(draw(st.integers(1, 3)))])
    rows = []
    for benchmark in space.benchmarks:
        table = draw(st.sampled_from(["whole", "whole", "rows missing", "later rows missing", "power zero", "time zero"]))
        values = random.Random(draw(st.integers(0, 2**16)))
        for config in enumerate_configs(space):
            # a configuration that moves two parameters off their first settings is no one-shot request
            later = sum(config[p.name] != p.first for p in space.parameters) > 1
            if table == "rows missing" and values.random() < 0.1 or table == "later rows missing" and later and values.random() < 0.3:
                continue
            metrics = {m: 0.0 if table == f"{m} zero" else values.choice(METRIC_VALUES) for m in ("power", "time")}
            rows.append([benchmark, *config.values(), metrics["power"], metrics["time"]])
    command = ["-T", draw(st.integers(1, 300)), "--weights", draw(st.sampled_from(WEIGHTS))]
    return space, rows, command


@settings(max_examples=100, deadline=None)
@given(experiments())
def test_every_run_directory_loads_back_as_the_search_returned_it(experiment):
    space, rows, command = experiment
    with tempfile.TemporaryDirectory() as tmp:
        space_file, table, out = Path(tmp) / "space.json", Path(tmp) / "table.csv", Path(tmp) / "run"
        save_space(space, space_file)
        with open(table, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["benchmark", *space.names, "power", "time"], *rows])
        result = CliRunner().invoke(
            main,
            ["run", "--space", str(space_file), *map(str, command), "--evaluator", f"table:{table}",
             "--out", str(out), "--jobs", "1"],
            catch_exceptions=False,
        )
        assert result.exit_code in (0, 2), result.output
        weights = {name: float(w) for name, w in (pair.split("=") for pair in command[3].split(","))}
        searched = run_search(space, TableEvaluator.load(table, space), weights, command[1])

        # the stored error texts are kept, not the replay's
        stored = json.loads((out / RESULT_FILE).read_text(encoding="utf-8"))
        for name, entry in stored["benchmarks"].items():
            if entry["error"] is not None:
                entry["error"] = searched.benchmarks[name].error = f"stored: {entry['error']}"
        (out / RESULT_FILE).write_text(json.dumps(stored), encoding="utf-8")

        _, loaded = load_run(out)
    assert loaded.space == space
    assert loaded.weights == weights
    assert loaded.benchmarks == searched.benchmarks


def test_each_cell_no_search_writes_is_named_by_its_line_and_cause(tmp_path):
    """Every data line of a two-benchmark run that logs one-shot, exhaustive
    and greedy rows, with one cell set to a non-setting or a non-finite
    metric: the error names that line and why, not a later difference."""
    space = make_space([(f"p{i}", list(range(1, n + 1))) for i, n in enumerate([2, 2, 2, 2, 3])], ["x", "y"])
    save_space(space, tmp_path / "space.json")
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main,
        ["run", "--space", str(tmp_path / "space.json"), "-T", "6", "--weights", "power=0.5,time=0.5",
         "--evaluator", "sepmono", "--out", str(out), "--jobs", "1"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    load_run(out)
    evals = out / EVALS_FILE
    with open(evals, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 16 and {row[1] for row in rows} == {"oneshot", "exhaustive", "greedy"}
    cases = []
    for index in range(len(rows)):
        parameter, metric = space.names[index % 5], ("power", "time")[index % 2]
        cases += [(index, parameter, text, "is not in the space") for text in ("x", "0")]
        cases += [(index, metric, text, f"{text!r} is not a finite number") for text in ("nan", "inf", "-inf", "1e400")]
    misnamed = []
    for index, column, text, cause in cases:
        edited = [list(row) for row in rows]
        edited[index][header.index(column)] = text
        with open(evals, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *edited])
        with pytest.raises(ValueError) as refused:
            load_run(out)
        message = str(refused.value)
        if not (message.startswith(f"{evals}: malformed: line {index + 2}: ") and message.endswith(cause)):
            misnamed.append(message)
    assert len(cases) == 96
    assert misnamed == []
