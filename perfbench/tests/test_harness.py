import json
import math
from pathlib import Path

import pytest

import harness
import layers
import run
import workloads


def _heavy(n):
    """Latencies with a heavy tail: the top items hold most of the time."""
    return [float(i) if i < n - 20 else 1000.0 * i for i in range(n, 0, -1)]


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 100, 101, 999, 1000, 1001, 5000])
@pytest.mark.parametrize("shape", ["uniform", "heavy"])
def test_tail_percentile_rule(n, shape):
    latencies = [float(i) for i in range(n, 0, -1)] if shape == "uniform" else _heavy(n)
    p, value, beyond = harness.tail_percentile(latencies)
    xs = sorted(latencies)
    after = xs[n - beyond:]
    assert beyond >= harness.MIN_BEYOND
    assert all(x >= value for x in after) and xs[n - beyond - 1] == value
    assert p <= harness.TAIL_CAP
    assert math.ceil(p * n / 100 - 1e-9) == n - beyond  # p's nearest rank is the tail's rank
    assert sum(after) >= harness.TAIL_TIME_SHARE * sum(xs) or n - beyond == 1
    # one item fewer beyond would break the cap, the count or the time floor
    fewer = after[1:]
    assert (
        p == harness.TAIL_CAP
        or len(fewer) < harness.MIN_BEYOND
        or sum(fewer) < harness.TAIL_TIME_SHARE * sum(xs)
    )


def test_tail_percentile_examples():
    # heavy tail: ten items beyond, or p99 once there are enough items
    assert harness.tail_percentile(_heavy(100))[::2] == (90.0, 10)
    assert harness.tail_percentile(_heavy(5000))[::2] == (99.0, 50)
    # equal work per item: the time floor moves the tail below p99
    p, value, beyond = harness.tail_percentile([1.0] * 5000)
    assert (p, value, beyond) == (75.0, 1.0, 1250)


def test_tail_percentile_needs_more_than_ten_items():
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


def test_derive_is_stable_and_separates_parts():
    assert harness.derive(1, "hardness-51", 7) == harness.derive(1, "hardness-51", 7)
    assert harness.derive(1, "hardness-51", 7) != harness.derive(1, "hardness-51", 8)
    assert harness.derive(12, 3) != harness.derive(1, 23)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_names()


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "hardness-51", "--seed", "5", "--seconds", "0.4", "--trace", "1"]) == 0
    report, result = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()[-2:]]
    assert result["correct"] and result["failed"] == 0
    assert [name for name, _, _ in layers.metric_names()] == list(result["metrics"])
    assert report["traced_digest"] == report["digest"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # hardness-51 never reaches these layers
    for layer in ("f2", "blocks", "gadget", "lemmalab", "resproof"):
        assert metrics[f"{layer}.calls"] == 0
    assert metrics["dtfooling.sample.calls"] == report["items"]
    assert metrics["trace.split_holds"] == 1


def test_typical_times_average_each_input_over_its_passes():
    outcomes = [harness.Outcome(i, s, None, []) for i, s in enumerate([3.0, 1.0, 2.0, 5.0, 4.0, 0.0])]
    assert harness.typical_times(outcomes, lambda i: i % 2, 2) == [3.0, 3.0, 2.0, 2.0]
    assert harness.typical_times(outcomes, lambda i: i, 1) == [3.0, 1.0, 2.0, 5.0, 4.0, 0.0]


class _Counting(workloads.Workload):
    """Items return their own input."""

    repeats = True
    pass_len = 3

    def item(self, i):
        return lambda: self.input_of(i)

    def canon(self, i, result):
        return result


def test_run_items_replays_the_passes_and_times_the_reference():
    loop = harness.run_items(_Counting(), count=6)
    assert [o.canon for o in loop.outcomes] == ["0", "1", "2", "0", "1", "2"]
    assert loop.reference_s and loop.nominal_s == harness.REFERENCES["python"][1]
    assert loop.host_factor == loop.nominal_s * len(loop.reference_s) / sum(loop.reference_s)
