"""Streaming analytics equivalence: the one-pass observer must reproduce the
pre-PR materialised ``analyze_trace`` byte for byte.

``_materialized_analyze`` below is a verbatim re-implementation of the
pre-streaming code (whole-trace lists, sorted copies, full name set) used as
the oracle: every statistic the streaming observer emits — on any format,
materialised or streamed, seeded or hypothesis-generated — must match it
exactly, including the rendered terminal tables.
"""

from dataclasses import asdict
from pathlib import Path

import gzip

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.legacy_codec import save_legacy_trace
from repro.campaign import TraceAnalyticsObserver, analytics_result
from repro.cli import main
from repro.engine import EngineSession, analyze_source, size_histogram
from repro.engine.analytics import TraceAnalytics, _NameSet
from repro.workloads import (
    Request,
    Trace,
    TraceFileSource,
    UniformSizes,
    churn_trace,
    load_trace,
    save_trace,
)

DATA = Path(__file__).parent / "data"


# --------------------------------------------------------------- seed oracle
def _materialized_analyze(trace, death_buckets=10):
    """The pre-streaming implementation, kept verbatim as the oracle."""

    def percentile(sorted_values, fraction):
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
        return sorted_values[index]

    def histogram(sizes):
        buckets = {}
        for size in sizes:
            exponent = max(0, size.bit_length() - 1)
            bucket = buckets.setdefault(
                exponent,
                {"low": 1 << exponent, "high": (1 << (exponent + 1)) - 1, "count": 0, "volume": 0},
            )
            bucket["count"] += 1
            bucket["volume"] += size
        return [buckets[exponent] for exponent in sorted(buckets)]

    births = {}
    birth_sizes = {}
    lifetimes = []
    deaths = [{"bucket": index, "objects": 0, "volume": 0} for index in range(death_buckets)]
    total = max(1, len(trace))
    volume = 0
    volume_sum = 0.0
    peak = 0
    sizes = []
    seen_names = set()
    for index, request in enumerate(trace):
        if request.is_insert:
            seen_names.add(request.name)
            births[request.name] = index
            birth_sizes[request.name] = request.size
            sizes.append(request.size)
            volume += request.size
        else:
            born = births.pop(request.name)
            size = birth_sizes.pop(request.name)
            lifetimes.append(index - born)
            bucket = min(death_buckets - 1, (index * death_buckets) // total)
            deaths[bucket]["objects"] += 1
            deaths[bucket]["volume"] += size
            volume -= size
        peak = max(peak, volume)
        volume_sum += volume
    immortal_volume = sum(birth_sizes.values())
    censored = [len(trace) - born for born in births.values()]
    all_lifetimes = sorted(lifetimes + censored)
    sorted_sizes = sorted(sizes)
    inserted_volume = sum(sizes)
    for bucket in deaths:
        bucket["volume_fraction"] = round(bucket["volume"] / max(1, inserted_volume), 4)
    return TraceAnalytics(
        label=trace.label,
        requests=len(trace),
        inserts=len(sizes),
        deletes=len(lifetimes),
        distinct_objects=len(seen_names),
        delta=max(sorted_sizes, default=0),
        inserted_volume=inserted_volume,
        peak_volume=peak,
        mean_volume=round(volume_sum / total, 2),
        final_volume=volume,
        turnover=round(inserted_volume / max(1, peak), 3),
        sizes={
            "p50": percentile(sorted_sizes, 0.50),
            "p90": percentile(sorted_sizes, 0.90),
            "p99": percentile(sorted_sizes, 0.99),
            "max": float(sorted_sizes[-1]) if sorted_sizes else 0.0,
        },
        lifetimes={
            "p50": percentile(all_lifetimes, 0.50),
            "p90": percentile(all_lifetimes, 0.90),
            "p99": percentile(all_lifetimes, 0.99),
            "max": float(all_lifetimes[-1]) if all_lifetimes else 0.0,
        },
        immortal_objects=len(births),
        immortal_volume=immortal_volume,
        histogram=histogram(sizes),
        death_groups=deaths,
    )


# ---------------------------------------------------- format battery (seeded)
def _save(trace, tmp_path, tag):
    if tag == "v0":  # read-only: the fixture the retired v0 writer saved
        path = DATA / "legacy-churn.v0"
        assert [(r.op, r.name, r.size) for r in load_trace(path)] == [
            (r.op, str(r.name), r.size) for r in trace
        ]
    elif tag == "v1":
        path = tmp_path / "t.v1"
        save_trace(trace, path, version=1)
    elif tag in ("v2", "v2z"):  # legacy, via the frozen encoder
        path = tmp_path / f"t.{tag}"
        save_legacy_trace(trace, path, compress=tag == "v2z")
    elif tag in ("v3", "v3z"):
        path = tmp_path / f"t.{tag}"
        save_trace(trace, path, version=3, compress=tag == "v3z", block_records=400)
    else:  # v1 inside a gzip container
        plain = tmp_path / "plain.v1"
        save_trace(trace, plain, version=1)
        path = tmp_path / "t.v1.gz"
        path.write_bytes(gzip.compress(plain.read_bytes()))
    return path


@pytest.mark.parametrize("tag", ["v0", "v1", "v2", "v2z", "v3", "v3z", "v1gz"])
def test_streaming_equals_materialized_oracle_across_formats(tmp_path, tag):
    trace = churn_trace(1500, UniformSizes(1, 80), target_live=60, seed=21, label="battery")
    path = _save(trace, tmp_path, tag)
    materialized = load_trace(path)
    expected = _materialized_analyze(materialized)
    via_trace = analyze_source(materialized)
    via_source = analyze_source(TraceFileSource(path))
    assert via_trace == expected
    assert via_source == expected
    # The rendered terminal tables are byte-identical too.
    assert analytics_result(via_source).to_text() == analytics_result(expected).to_text()


def test_streaming_handles_reinserted_names(tmp_path):
    """A name that dies and comes back is one distinct object, counted once."""
    requests = []
    for round_index in range(3):
        requests.append(Request.insert("phoenix", 4 + round_index))
        requests.append(Request.insert(f"one-off-{round_index}", 2))
        requests.append(Request.delete("phoenix"))
    trace = Trace(requests, label="phoenix")
    path = tmp_path / "p.v3"
    save_trace(trace, path, version=3)
    expected = _materialized_analyze(load_trace(path))
    assert expected.distinct_objects == 4
    assert analyze_source(TraceFileSource(path)) == expected


def test_analyze_trace_death_buckets_parameter(tmp_path):
    trace = churn_trace(600, target_live=40, seed=4)
    path = tmp_path / "t.v1"
    save_trace(trace, path)
    expected = _materialized_analyze(load_trace(path), death_buckets=4)
    assert analyze_source(TraceFileSource(path), death_buckets=4) == expected
    assert len(expected.death_groups) == 4


def test_analyze_empty_and_insert_only_traces():
    empty = analyze_source(Trace([], label="empty"))
    assert empty.requests == 0 and empty.turnover == 0 and empty.mean_volume == 0.0
    assert empty == _materialized_analyze(Trace([], label="empty"))
    grow = Trace([Request.insert(i, 3) for i in range(10)], label="grow")
    assert analyze_source(grow) == _materialized_analyze(grow)


# ------------------------------------------------------ hypothesis equivalence
churn_scripts = st.lists(
    st.integers(min_value=-64, max_value=48).filter(lambda v: v != 0),
    min_size=1,
    max_size=250,
)


def _script_to_trace(script):
    requests = []
    live = []
    next_id = 0
    for action in script:
        if action > 0 or not live:
            next_id += 1
            name = f"obj {next_id}·"  # whitespace + unicode: v1/v2/v3 encode it
            requests.append(Request.insert(name, abs(action)))
            live.append(name)
        else:
            requests.append(Request.delete(live.pop((-action - 1) % len(live))))
    return Trace(requests, label="hypothesis")


@pytest.mark.parametrize(
    "version,compress", [(1, False), (2, False), (2, True), (3, False), (3, True)]
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=churn_scripts)
def test_hypothesis_streaming_equals_materialized(tmp_path_factory, version, compress, script):
    trace = _script_to_trace(script)
    path = tmp_path_factory.mktemp("analytics") / "t.trace"
    if version == 2:  # legacy, via the frozen encoder
        save_legacy_trace(trace, path, compress=compress)
    else:
        save_trace(trace, path, version=version, compress=compress)
    materialized = load_trace(path)
    expected = _materialized_analyze(materialized)
    assert analyze_source(materialized) == expected
    assert analyze_source(TraceFileSource(path)) == expected


# ----------------------------------------------------- engine observer parity
def test_observer_rides_along_on_an_engine_run():
    from repro.allocators import FirstFitAllocator

    trace = churn_trace(800, target_live=50, seed=9, label="ride")
    observer = TraceAnalyticsObserver()
    EngineSession(FirstFitAllocator(), [observer]).run(trace)
    assert observer.result(label="ride") == _materialized_analyze(trace)
    export = observer.export()
    assert export["requests"] == len(trace)
    assert export["volume_series"]["indices"][0] == 0


# ------------------------------------------------------- size histogram bugfix
def test_size_histogram_gives_zero_sizes_their_own_bucket():
    histogram = size_histogram([0, 0, 1, 1, 5])
    assert histogram[0] == {"low": 0, "high": 0, "count": 2, "volume": 0}
    assert histogram[1] == {"low": 1, "high": 1, "count": 2, "volume": 2}
    assert histogram[2] == {"low": 4, "high": 7, "count": 1, "volume": 5}
    # Without zeros the buckets are unchanged from the historical formula.
    assert size_histogram([1, 2, 64]) == [
        {"low": 1, "high": 1, "count": 1, "volume": 1},
        {"low": 2, "high": 3, "count": 1, "volume": 2},
        {"low": 64, "high": 127, "count": 1, "volume": 64},
    ]


# ----------------------------------------------------------- name-set details
def test_compact_name_set_membership_and_growth():
    names = _NameSet()
    for index in range(2000):
        assert f"name {index}€" not in names
        names.add(f"name {index}€")
    assert len(names) == 2000
    for index in range(2000):
        assert f"name {index}€" in names
    names.add("name 7€")  # re-add is a no-op
    assert len(names) == 2000
    assert "" not in names
    names.add("")
    assert "" in names and len(names) == 2001


# --------------------------------------------------------------------- the CLI
def test_cli_trace_analyze_streams_and_charts(tmp_path, capsys):
    trace = churn_trace(500, target_live=40, seed=6, label="cli stream")
    path = tmp_path / "t.v2z"
    save_legacy_trace(trace, path, compress=True, metadata={"seed": 6})
    assert main(["trace", "analyze", str(path)]) == 0
    out = capsys.readouterr().out
    # The analytics block is byte-identical to the materialised rendering.
    expected = analytics_result(_materialized_analyze(load_trace(path))).to_text()
    assert out.startswith(expected)
    assert "live volume over 500 requests" in out
    assert main(["trace", "analyze", str(path), "--no-chart"]) == 0
    assert "live volume over" not in capsys.readouterr().out


def test_streaming_analytics_rejects_inconsistent_streams():
    """The observer raises the same ValueError a materialised Trace raises,
    instead of crashing with a KeyError or silently mis-counting."""
    with pytest.raises(ValueError, match="request 1: 'b' deleted while inactive"):
        analyze_source([Request.insert("a", 5), Request.delete("b")])
    with pytest.raises(ValueError, match="request 1: 'a' inserted while active"):
        analyze_source([Request.insert("a", 5), Request.insert("a", 7)])


def test_cli_trace_analyze_malformed_trace_exits_2(tmp_path, capsys):
    """A v0 file with a dangling delete used to fail at load time; the
    streaming path must keep the exit-2-with-clear-message contract."""
    path = tmp_path / "dangling.v0"
    path.write_text("# trace bad\nI a 5\nD b\n", encoding="utf-8")
    assert main(["trace", "analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'b' deleted while inactive" in err and "Traceback" not in err


def test_cli_trace_analyze_garbage_exits_2(tmp_path, capsys):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(bytes(range(190, 256)) * 7)
    assert main(["trace", "analyze", str(garbage)]) == 2
    err = capsys.readouterr().err
    assert "repro trace analyze" in err and "Traceback" not in err


def test_cli_trace_analyze_truncated_v2_exits_2(tmp_path, capsys):
    whole = tmp_path / "whole.v2"
    save_legacy_trace(churn_trace(300, target_live=30, seed=2), whole)
    clipped = tmp_path / "clipped.v2"
    clipped.write_bytes(whole.read_bytes()[:150])
    assert main(["trace", "analyze", str(clipped)]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err and "Traceback" not in err
