"""Reference worker process for the external-evaluator protocol.

Run as ``python -m dsekit.mock_worker``. Reads one JSON request per line on
stdin and writes one JSON response per line on stdout:

    request:  {"id": <int>, "benchmark": <str>, "config": {...}}
    response: {"id": <int>, "metrics": {...}}  or  {"id": <int>, "error": <str>}

Two metric models are available. ``tiny`` (the default) expects parameters
named A and B and computes power = 0.5*A + 0.002*B, time = 24/A + 200/B;
``synthetic`` answers as ``SyntheticEvaluator`` does, errors included,
resolving the profile from the benchmark name. A setting outside the model,
such as A = 0 or 0 cores, gets an error response, and the worker keeps
serving. The misbehavior flags exist so error handling can be exercised
end to end: a worker can be told to answer a specific benchmark with an
error response, with a wrong response id, with silence, with a NaN
``time``, or without ``time`` on every even request id. Every flag depends
only on the request, so a pool of these workers answers as one worker does.
"""

from __future__ import annotations

import json
import math
import sys
import time

import click

from .errors import EvaluationError
from .evaluators import SyntheticEvaluator


def _tiny_metrics(config: dict) -> dict[str, float]:
    try:
        a = float(config["A"])
        b = float(config["B"])
    except KeyError as exc:
        raise EvaluationError(f"tiny model requires parameter {exc}") from None
    return {"power": 0.5 * a + 0.002 * b, "time": 24.0 / a + 200.0 / b}


def _synthetic_metrics(config: dict, benchmark: str) -> dict[str, float]:
    return SyntheticEvaluator().evaluate(config, benchmark)


@click.command()
@click.option(
    "--model",
    type=click.Choice(["tiny", "synthetic"]),
    default="tiny",
    show_default=True,
    help="Metric model to answer with.",
)
@click.option("--error-on", default=None, help="Answer this benchmark with an error response.")
@click.option("--skew-id-on", default=None, help="Answer this benchmark with a wrong response id.")
@click.option("--hang-on", default=None, help="Never answer this benchmark.")
@click.option("--nan-on", default=None, help="Answer this benchmark with a NaN time.")
@click.option(
    "--drop-metric-on",
    default=None,
    help="Answer this benchmark without its time metric on even request ids, "
    "so any two consecutive requests disagree.",
)
def main(
    model: str,
    error_on: str | None,
    skew_id_on: str | None,
    hang_on: str | None,
    nan_on: str | None,
    drop_metric_on: str | None,
) -> None:
    """Serve evaluation requests from stdin until EOF."""
    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            request = json.loads(line)
            request_id = request["id"]
            benchmark = request["benchmark"]
            config = request["config"]
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError):  # RecursionError: nested too deep
            _respond({"id": -1, "error": "malformed request"})
            continue

        if hang_on is not None and benchmark == hang_on:
            time.sleep(3600)
            continue
        if error_on is not None and benchmark == error_on:
            response: dict = {"id": request_id, "error": f"injected failure for {benchmark}"}
        else:
            try:
                if model == "tiny":
                    metrics = _tiny_metrics(config)
                else:
                    metrics = _synthetic_metrics(config, benchmark)
                if benchmark == nan_on:
                    metrics["time"] = math.nan
                if benchmark == drop_metric_on and request_id % 2 == 0:
                    del metrics["time"]
                response = {"id": request_id, "metrics": metrics}
            except EvaluationError as exc:
                response = {"id": request_id, "error": str(exc)}
            except (ArithmeticError, TypeError, ValueError) as exc:  # a setting outside the model
                error = f"{model} model cannot evaluate configuration {config}: {exc}"
                response = {"id": request_id, "error": error}
        if skew_id_on is not None and benchmark == skew_id_on:
            response["id"] = request_id + 1
        _respond(response)


def _respond(response: dict) -> None:
    """Write one response line with one write, then flush: ``print`` writes
    the text and the newline apart, two system calls on unbuffered stdout."""
    sys.stdout.write(json.dumps(response) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
