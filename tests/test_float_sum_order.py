"""Pinned outputs do not depend on how the interpreter's ``sum`` rounds.

Since CPython 3.12 the builtin ``sum`` compensates float rounding (Neumaier
summation), so a float total can differ in its last bit from the plain
left-to-right ``sum`` of 3.10/3.11, under which every golden file was
captured.  These tests swap ``builtins.sum`` for an exact emulation of the
3.12+ builtin and replay the golden pins (and the experiment-input and
regression-fit pins) under it: a float ``sum()`` on an output path fails
them on every interpreter, not only on the CI legs that run 3.12 or 3.13.
"""

from __future__ import annotations

import builtins
import json
import math
import random
import sys

import pytest

from benchmarks import capture_frontier_parity, capture_service_parity
from conftest import EXPERIMENT_INPUT_DIGESTS, experiment_input_digest
from test_evaluation_contention import TENANT_SUMMARY_PINS, tenant_summary_digest
from test_regression_pins import PINS, regression_fits
from repro.evaluation.contention import scenario_fingerprint

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def neumaier_sum(iterable, /, start=0):
    """CPython 3.12+'s builtin ``sum``, step for step.

    An exact ``int`` start sums exact ints (and bools) while they fit a C
    long.  From the first exact ``float`` on, floats are added with a
    Neumaier compensation term, while ints that fit a C long are added
    uncompensated.  The compensation is folded in when the input ends or
    when an item of any other type (a ``float`` subclass, a numpy scalar)
    hands the rest to plain ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and _LONG_MIN <= result + item <= _LONG_MAX:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


class _Subclass(float):
    pass


#: ``(values, repr of CPython 3.12.1 and 3.13.0's sum(values))``; 3.11's
#: ``sum`` differs on the first three.
_KNOWN_RESULTS = [
    ([0.1] * 10, "1.0"),
    ([1e16, 1.0, 1.0], "1.0000000000000002e+16"),
    ([1e16, 1.0, 1.0, _Subclass(0.0)], "1.0000000000000002e+16"),
    ([1e16, 1, 1], "1e+16"),
    ([1e308, 1e308, -1e308], "inf"),
    ([-0.0, -0.0], "0.0"),
    ([0.5, True, 1e-17], "1.5"),
    ([2**63 - 1, 1, 0.5, 1e-17], "9.223372036854776e+18"),
    ([], "0"),
]


class TestEmulation:
    @pytest.mark.parametrize("values, expected", _KNOWN_RESULTS)
    def test_reproduces_recorded_interpreter_results(self, values, expected):
        assert repr(neumaier_sum(values)) == expected

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="the builtin compensates from 3.12")
    def test_matches_the_running_interpreter(self):
        rng = random.Random(7)
        for _ in range(2000):
            values = [
                rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                for _ in range(rng.randint(1, 12))
            ]
            assert repr(neumaier_sum(values)) == repr(sum(values))


@pytest.fixture
def compensated_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)


FRONTIER = json.loads(capture_frontier_parity.REFERENCE_PATH.read_text())


@pytest.mark.usefixtures("compensated_sum")
class TestPinsUnderCompensatedSum:
    # Every frontier pin is replayed. With builtin ``sum()`` totals, seven of
    # them move: mixed-tenants, noisy-neighbor and queue-feedback under both
    # placements, and spread-vs-pack under least-slowdown.
    @pytest.mark.parametrize("placement", FRONTIER["placements"])
    @pytest.mark.parametrize("name", sorted(FRONTIER["scenarios"]))
    def test_frontier_fingerprint(self, name, placement):
        pinned = FRONTIER["scenarios"][name][placement]
        observed = scenario_fingerprint(name, placement, seed=FRONTIER["seed"])
        assert observed["summary"] == pinned["summary"]
        assert observed["decisions"] == pinned["decisions"]
        assert observed["n_rows"] == pinned["n_rows"]
        assert observed["rows_sha256"] == pinned["rows_sha256"]

    @pytest.mark.parametrize("seed", sorted(TENANT_SUMMARY_PINS))
    def test_tenant_summaries(self, seed):
        assert tenant_summary_digest(seed) == TENANT_SUMMARY_PINS[seed]

    def test_service_reference_stream(self):
        reference = json.loads(capture_service_parity.REFERENCE_PATH.read_text())
        summary = capture_service_parity.run_reference_stream(
            n_shards=1, n_rounds=reference["n_rounds"]
        )
        assert json.loads(json.dumps(summary)) == reference["summary"]

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_INPUT_DIGESTS))
    def test_evaluation_inputs(self, name):
        assert experiment_input_digest(name) == EXPERIMENT_INPUT_DIGESTS[name]

    def test_regression_fits(self):
        assert regression_fits() == PINS
