import json
from pathlib import Path

import layers
import superinduce.fraction as fraction
import superinduce.superpoly as superpoly
import workloads
from tracing import Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_file_names_every_reported_metric():
    bench = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert [m["name"] for m in bench["end_to_end"]] == [
        "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_install_wraps_importers_and_counts_layers():
    original_mul = superpoly.SuperPolynomial.__mul__
    original_divide = superpoly.exact_divide
    amb = superpoly.ambient(1, 1, 0)
    amb._cache.clear()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert fraction.exact_divide is superpoly.exact_divide is not original_divide
        x = amb.gen(1, 1) + amb.gen(2, 2)
        product = x * x
        assert superpoly.exact_divide(product, x) == x
        assert fraction.det_block11(amb) == amb.gen(1, 1)
        assert fraction.det_block11(amb) == amb.gen(1, 1)
    finally:
        tracer.uninstall()
    assert superpoly.SuperPolynomial.__mul__ is original_mul
    assert fraction.exact_divide is original_divide
    report = layers.metrics(tracer, {"q": 1.5}, ops=3, overhead_ratio=0.9)
    assert list(report) == list(layers.PER_LAYER)
    assert report["superpoly.exact_divide.calls"]["value"] == 1
    assert report["superpoly.exact_divide.failed"]["value"] == 0
    assert report["superpoly.mul.term_pairs"]["value"] >= 4
    assert report["coeff_field.q.busy_s"]["value"] == 1.5
    assert report["trace.overhead_ratio"] == {"value": 0.9, "unit": "ratio"}
    # the second det_block11 call found the entry the first one stored
    assert report["ambient_cache.misses"]["value"] == 1
    assert report["ambient_cache.hits"]["value"] == 1
    assert report["ambient_cache.entries"]["value"] == 1


def test_rounds_repeat_for_a_seed_and_differ_across_seeds():
    first = [op.label for op in workloads.Queries(5).round()]
    assert first == [op.label for op in workloads.Queries(5).round()]
    assert first != [op.label for op in workloads.Queries(6).round()]
    kinds = [op.kind for op in workloads.Floors(5).round()]
    assert len(kinds) == len(workloads.Floors(6).round())
    assert {"eigenvalue", "primitive", "divide", "search"} <= set(kinds)


def test_query_oracle_rejects_changed_output():
    op = next(op for op in workloads.Queries(1).round() if op.kind == "typicality")
    code, text = op.run()
    assert op.check((code, text))
    assert not op.check((code, text + " "))
    assert not op.check((1, text))
