"""Per-layer metrics of a traced pass.

Times come from the spans :mod:`spans` records around each layer's
public entry points; counts come from the same spans and from the
program's own ``obs`` registry.  ``core.fit_s`` is the one time taken
from the registry (``vaccinate.fit.seconds``): the detector fit has no
public function of its own to wrap.  Flow-specific values (campaign
cells, serve percentiles, arena outcomes) come from the flows.

The metric names and units are those of ``per_layer`` in
``BENCHMARK.json``; a layer a workload does not exercise reads 0.
"""

def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer, registry, flow_layers, names):
    """Every per-layer metric in ``names`` for one traced pass."""
    spans = tracer.summarize()
    counters = registry.get("counters", {})
    timers = registry.get("timers", {})

    def outer(name):
        return spans.get(name, {}).get("outer", 0.0)

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    def counter(name):
        return counters.get(name, 0)

    def timer(name):
        return timers.get(name, {"count": 0, "total_s": 0.0})

    values = dict.fromkeys(names, 0.0)
    sim_run_s = spans.get("sim.run", {}).get("self", 0.0)
    decode = counter("sim.decode.block_hits") + \
        counter("sim.decode.block_misses")
    batch = timer("ml.train.batch.seconds")
    gan_s = outer("core.gan")
    values.update({
        "sim.run_s": sim_run_s,
        "sim.runs": calls("sim.run"),
        "sim.cycles": counter("sim.cycles"),
        "sim.committed": counter("sim.committed"),
        "sim.ns_per_cycle": _ratio(sim_run_s, counter("sim.cycles"), 1e9),
        "sim.build_s": outer("sim.build"),
        "sim.decode_hit_ratio": _ratio(counter("sim.decode.block_hits"),
                                       decode),
        "sim.gated_run_s": tracer.total_under("sim.run",
                                              "core.adaptive_run"),
        "data.collect_s": outer("data.build_dataset"),
        "data.save_s": outer("data.save"),
        "data.load_s": outer("data.load"),
        "data.raw_matrix_s": outer("data.raw_matrix"),
        "data.raw_matrix_calls": calls("data.raw_matrix"),
        "core.gan_s": gan_s,
        "core.gan_ms_per_iter": _ratio(gan_s, counter("amgan.iterations"),
                                       1e3),
        "core.engineer_s": outer("core.engineer"),
        "core.augment_s": outer("core.augment"),
        "core.fit_s": timer("vaccinate.fit.seconds")["total_s"],
        "core.calibrate_s": outer("core.calibrate"),
        "core.evaluate_s": outer("core.evaluate"),
        "core.detector_save_s": outer("core.detector_save"),
        "core.detector_load_s": outer("core.detector_load"),
        "core.score_batch_s": outer("core.score_batch"),
        "core.score_batch_calls": calls("core.score_batch"),
        "ml.train_batches": counter("ml.train.batches"),
        "ml.train_batch_us": _ratio(batch["total_s"], batch["count"], 1e6),
        "ml.guard_trips": counter("guard.trips"),
        "ml.guard_rollbacks": counter("guard.rollbacks"),
        "defenses.apply_s": outer("defenses.apply"),
        "defenses.flag_ratio": _ratio(counter("adaptive.flags"),
                                      counter("adaptive.windows.total")),
        "defenses.secure_entries": counter("adaptive.secure.entries"),
        "defenses.latched": counter("adaptive.fail_secure.latches"),
        "serve.submit_s": outer("serve.submit"),
        "serve.batch_overhead_s":
            spans.get("serve.process_batch", {}).get("self", 0.0),
        "campaign.cache_put_s": outer("campaign.cache_put"),
        "campaign.cache_get_s": outer("campaign.cache_get"),
        "runtime.task_s": outer("runtime.runner"),
        "runtime.atomic_writes": calls("runtime.atomic_write"),
        "runtime.atomic_write_s": outer("runtime.atomic_write"),
        "runtime.checkpoint_put_s": outer("runtime.checkpoint_put"),
        "runtime.checkpoint_get_s": outer("runtime.checkpoint_get"),
        "arena.evaluate_s": tracer.total_under("runtime.runner",
                                               "arena.run"),
        "arena.revaccinate_s": tracer.total_under("core.vaccinate",
                                                  "arena.run"),
        "arena.gate_s": outer("arena.gate"),
        "obs.manifest_write_s": outer("obs.manifest_write"),
        "analysis.report_s": outer("analysis.report"),
    })
    values.update(flow_layers)
    unknown = set(values) - set(names)
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return values
