"""Span recording, self time and the layer wrappers."""

from perfbench import tracing


def span(span_id, name, start, end, parent=None, leaf=0.0):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "run": "r", "leaf": leaf}


def test_covered_is_a_clipped_union():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(-1.0, 0.5), (0.8, 2.0)], 0.0, 1.0) == 0.7
    assert tracing.covered([(0.0, 4.0), (1.0, 2.0)], 0.0, 4.0) == 4.0


def test_self_time_subtracts_children_union_and_leaf_time():
    spans = [span("a", "sweep", 0.0, 10.0),
             span("b", "run", 1.0, 6.0, parent="a", leaf=1.0),
             span("c", "run", 2.0, 8.0, parent="a"),  # overlaps b
             span("d", "batch.epoch", 1.0, 3.0, parent="b", leaf=0.5)]
    rows = tracing.self_times(spans)
    assert rows["sweep"]["self_s"] == 3.0  # 10 - |[1, 8]|
    assert rows["run"]["calls"] == 2
    assert rows["run"]["total_s"] == 11.0
    assert rows["run"]["self_s"] == (5.0 - 2.0 - 1.0) + 6.0
    assert rows["batch.epoch"]["self_s"] == 1.5


def test_nested_spans_carry_parent_run_and_leaf_time():
    tracer = tracing.Tracer()
    hot = tracer.leaf("acfv.on_hit")(lambda x: x + 1)
    hot(1)  # no span open: not recorded
    with tracer.span("run", run="rep0") as outer:
        with tracer.span("batch.epoch") as inner:
            assert hot(1) == 2
        hot(2)
    assert tracer.counts["acfv.on_hit"] == 2
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["batch.epoch"]["parent"] == outer["id"]
    assert by_name["batch.epoch"]["run"] == "rep0"
    assert by_name["run"]["parent"] is None
    total_leaf = tracer.leaf_time["acfv.on_hit"]
    assert abs(inner["leaf"] + outer["leaf"] - total_leaf) < 1e-12
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_merge_reparents_worker_roots():
    worker = tracing.Tracer()
    with worker.span("run", run="w"):
        with worker.span("batch.epoch"):
            pass
    worker.count("batch.epochs.batch-merged", 3)
    parent = tracing.Tracer()
    with parent.span("sweep") as sweep:
        pass
    parent.merge(worker.export(), parent=sweep["id"])
    runs = [s for s in parent.spans if s["name"] == "run"]
    assert runs[0]["parent"] == sweep["id"]
    assert parent.counts["batch.epochs.batch-merged"] == 3


def test_instrument_wraps_and_restores_entry_points():
    import repro.sim.batch as batch
    from repro.core.acfv import AcfvBank

    before = (batch.run_epoch_batch, vars(AcfvBank)["on_hit"])
    with tracing.instrument(tracing.Tracer()):
        assert batch.run_epoch_batch is not before[0]
        assert vars(AcfvBank)["on_hit"] is not before[1]
    assert (batch.run_epoch_batch, vars(AcfvBank)["on_hit"]) == before


def test_traced_run_records_tiers_and_keeps_results(monkeypatch):
    from perfbench import sim

    monkeypatch.setattr(sim, "PRESET", "tiny")
    plain, digest, _ = sim.simulate_once("morphcache", "MIX 01", 2, 3,
                                         "batch")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, traced_digest, _ = sim.simulate_once(
            "morphcache", "MIX 01", 2, 3, "batch", tracer)
    assert sim.summarize(traced, traced_digest) == sim.summarize(plain,
                                                                 digest)
    tiers = sum(n for name, n in tracer.counts.items()
                if name.startswith("batch.epochs."))
    assert tiers == 3  # two epochs plus the warm-up
    metrics = sim.layer_metrics(tracer, 1, [])
    assert metrics["batch.fast_tier_ratio"][0] == 1.0
    assert metrics["acfv.on_hit_calls"][0] > 0
