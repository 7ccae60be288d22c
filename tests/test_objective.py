import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    DegenerateMetricError,
    WEIGHT_PROFILES,
    build_context,
    objective,
    parse_weights,
    validate_weights,
)
from dsekit.errors import EvaluationError
from dsekit.objective import check_metrics, check_weights, is_metric_value

from .bruteforce import weighted_objective


def metric_vectors(names=("power", "time"), min_value=0.0):
    value = st.floats(min_value, 1e6, allow_nan=False, allow_infinity=False)
    return st.fixed_dictionaries({n: value for n in names})


class TestValidateWeights:
    def test_profiles_are_valid(self):
        for profile in WEIGHT_PROFILES.values():
            assert validate_weights(profile) == []

    def test_out_of_range(self):
        violations = validate_weights({"power": 1.5, "time": -0.5})
        assert sum("outside [0, 1]" in v for v in violations) == 2

    def test_sum_must_be_one(self):
        violations = validate_weights({"power": 0.5, "time": 0.4})
        assert any("sum to" in v for v in violations)
        # within tolerance is fine
        weights = {"power": 0.1 + 1e-12, "time": 0.9}
        assert validate_weights(weights) == []


class TestParseWeights:
    def test_basic(self):
        assert parse_weights("power=0.9,time=0.1") == {"power": 0.9, "time": 0.1}

    def test_whitespace_and_trailing_comma(self):
        assert parse_weights(" power = 0.5 , time=0.5, ") == {
            "power": 0.5,
            "time": 0.5,
        }

    @pytest.mark.parametrize(
        "text", ["power", "power=abc", "power=0.5,power=0.5", "", ","]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_weights(text)


class TestNormalization:
    def test_maxima_come_from_supplied_records(self):
        ctx = build_context([{"power": 2.0, "time": 10.0}, {"power": 4.0, "time": 5.0}])
        assert ctx.maxima == {"power": 4.0, "time": 10.0}
        assert ctx.normalize({"power": 2.0, "time": 10.0}) == {
            "power": 0.5,
            "time": 1.0,
        }

    def test_values_above_maximum_normalize_above_one(self):
        ctx = build_context([{"time": 10.0}])
        assert ctx.normalize({"time": 25.0}) == {"time": 2.5}

    def test_unknown_metric(self):
        ctx = build_context([{"time": 10.0}])
        with pytest.raises(KeyError):
            ctx.normalize({"power": 1.0})

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_context([])

    def test_degenerate_metric_normalizes_to_zero(self):
        ctx = build_context([{"power": 0.0, "time": 10.0}])
        assert ctx.degenerate == {"power"}
        assert ctx.normalize({"power": 0.0, "time": 5.0}) == {
            "power": 0.0,
            "time": 0.5,
        }


class TestObjective:
    def test_matches_reference_formula(self):
        ctx = build_context([{"power": 2.2, "time": 26.0}, {"power": 1.0, "time": 4.0}])
        weights = {"power": 0.1, "time": 0.9}
        metrics = {"power": 2.2, "time": 24.4}
        got = objective(metrics, ctx, weights)
        want = weighted_objective(metrics, weights, ctx.maxima)
        assert got == want == 0.1 * 1.0 + 0.9 * (24.4 / 26.0)

    def test_weighted_degenerate_metric_raises(self):
        ctx = build_context([{"power": 0.0, "time": 10.0}])
        with pytest.raises(DegenerateMetricError, match="'power' is 0 .* benchmark 'b'"):
            check_weights("b", ctx, {"power": 0.5, "time": 0.5})

    def test_zero_weight_ignores_degenerate_metric(self):
        ctx = build_context([{"power": 0.0, "time": 10.0}])
        check_weights("b", ctx, {"power": 0.0, "time": 1.0})
        value = objective({"power": 0.0, "time": 5.0}, ctx, {"power": 0.0, "time": 1.0})
        assert value == 0.5

    def test_check_metrics_returns_the_order_of_names(self):
        names = ["power", "time"]
        in_order = {"power": 1.0, "time": 2.0}
        assert check_metrics("b", in_order, names) is in_order
        flipped = check_metrics("b", {"time": 2.0, "power": 1.0}, names)
        assert list(flipped.items()) == list(in_order.items())
        with pytest.raises(EvaluationError, match=r"returned metrics \['time'\], expected"):
            check_metrics("b", {"time": 2.0}, names)
        with pytest.raises(EvaluationError, match="metric 'power' is nan"):
            check_metrics("b", {"time": 2.0, "power": math.nan}, names)

    def test_is_metric_value_never_raises(self):
        class Ratio(float):
            pass

        for value in (1, -3, 1.5, 0.0, 1e308, Ratio(2.0), 10**300):
            assert is_metric_value(value), value
        for value in (10**400, -(10**400), True, math.nan, -math.inf, "1.5", None, 1j, [1.0]):
            assert not is_metric_value(value), value

    def test_check_metrics_refuses_an_int_beyond_float_range(self):
        # a library backend's 400-digit int fails its benchmark, no OverflowError
        with pytest.raises(EvaluationError, match="metric 'power' is 1000"):
            check_metrics("b", {"power": 10**400, "time": 2.0}, ["power", "time"])

    def test_check_metrics_refuses_a_boolean(self):
        # a bool is an int to isinstance, but no metric value
        with pytest.raises(EvaluationError, match="metric 'power' is True, not a finite number"):
            check_metrics("b", {"power": True, "time": 2.0}, ["power", "time"])

    @given(metric_vectors(min_value=1e-3), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounds_on_oneshot_records(self, metrics, w):
        """F of a record that set the maxima lies in [0, 1]."""
        ctx = build_context([metrics])
        weights = {"power": w, "time": 1.0 - w}
        value = objective(metrics, ctx, weights)
        assert 0.0 <= value <= 1.0 + 1e-12
        # the record attaining every maximum scores exactly the weight sum
        assert math.isclose(value, 1.0)

    @given(
        st.lists(metric_vectors(min_value=1e-3), min_size=2, max_size=6),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_linearity_in_each_metric(self, vectors, w):
        ctx = build_context(vectors)
        weights = {"power": w, "time": 1.0 - w}
        a, b = vectors[0], vectors[1]
        fa = objective(a, ctx, weights)
        fb = objective(b, ctx, weights)
        mid = {k: (a[k] + b[k]) / 2 for k in a}
        fmid = objective(mid, ctx, weights)
        assert math.isclose(fmid, (fa + fb) / 2, rel_tol=1e-9, abs_tol=1e-12)

    @given(
        st.lists(metric_vectors(min_value=1e-3), min_size=2, max_size=8),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_dominated_vector_never_scores_lower(self, vectors, w):
        ctx = build_context(vectors)
        weights = {"power": w, "time": 1.0 - w}
        base = vectors[0]
        worse = {k: v * 1.5 for k, v in base.items()}
        assert objective(worse, ctx, weights) >= objective(base, ctx, weights)
