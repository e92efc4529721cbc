"""The canonical metric catalog.

Every metric name the instrumentation may emit is declared here, grouped
by layer, with its instrument kind and a one-line meaning.  This is the
contract between code and documentation:

* instrumentation sites take names from this module (or match it —
  checked by ``tests/obs/test_docs_and_catalog.py``);
* every metric name mentioned in ``docs/observability.md`` must exist
  here, so the docs cannot drift from the code.

Names are dotted ``layer.subsystem.metric`` strings.  Stage timers
produced by the CLI are the one parameterized family:
``stage.<command>.<stage>`` — enumerated here explicitly so the docs
check stays exact.
"""

#: layer -> {metric name: (kind, description)}
CATALOG = {
    "sim": {
        "sim.runs": ("counter", "simulations completed (Machine.run calls)"),
        "sim.run.seconds": ("timer", "wall-clock per simulation run"),
        "sim.cycles": ("counter", "total simulated cycles across runs"),
        "sim.committed": ("counter", "total committed instructions"),
        "sim.detections": ("counter", "detector-hook positive windows"),
        "sim.sampler.windows": ("counter", "HPC sampling windows emitted"),
        "sim.sampler.partial_windows":
            ("counter", "partial end-of-run windows emitted by flush"),
        "sim.smt.runs": ("counter", "SMT co-tenant runs (SMTMachine.run)"),
    },
    "runtime": {
        "runner.tasks.queued": ("counter", "tasks submitted to TaskRunner"),
        "runner.tasks.started": ("counter", "attempts started (incl. retries)"),
        "runner.workers.started":
            ("counter", "worker processes forked (reused until an attempt "
                        "fails)"),
        "runner.tasks.finished": ("counter", "tasks completed and validated"),
        "runner.tasks.retried": ("counter", "failed attempts re-queued"),
        "runner.tasks.quarantined":
            ("counter", "tasks failed permanently after retries"),
        "runner.failures.crash": ("counter", "attempts lost to crashes"),
        "runner.failures.timeout": ("counter", "attempts lost to timeouts"),
        "runner.failures.divergent":
            ("counter", "attempts rejected by the validator"),
        "runner.task.seconds": ("timer", "per-task wall clock (queue to "
                                         "resolution, across retries)"),
        "runtime.atomic_write.seconds":
            ("timer", "per durable write (atomic_write_bytes): count = "
                      "writes, total and max = seconds"),
    },
    "data": {
        "data.build.seconds": ("timer", "resilient corpus build wall clock"),
        "data.sources.completed": ("counter", "sources simulated this build"),
        "data.sources.restored":
            ("counter", "sources restored from checkpoint shards"),
        "data.records": ("counter", "sample records added to the dataset"),
        "data.coverage": ("gauge", "fraction of requested sources present"),
    },
    "ml": {
        "ml.train.batches": ("counter", "optimizer steps taken"),
        "ml.train.batch.seconds": ("timer", "wall-clock per train_batch"),
        "ml.train.loss": ("gauge", "most recent batch loss"),
        "guard.trips": ("counter", "training anomalies detected, any kind"),
        "guard.trips.nan":
            ("counter", "trips: non-finite loss or parameters"),
        "guard.trips.grad_spike":
            ("counter", "trips: gradient magnitude explosion"),
        "guard.trips.loss_divergence":
            ("counter", "trips: loss detached from its EMA"),
        "guard.rollbacks":
            ("counter", "snapshot rollbacks taken by the guard"),
        "guard.clips":
            ("counter", "in-place parameter sanitizations (clip policy)"),
        "guard.checkpoints.written":
            ("counter", "durable training checkpoints persisted"),
        "guard.checkpoints.restored":
            ("counter", "training states restored from checkpoint"),
    },
    "core": {
        "amgan.train.seconds": ("timer", "AM-GAN adversarial training"),
        "amgan.iterations": ("counter", "adversarial rounds completed"),
        "amgan.loss.disc_real": ("gauge", "discriminator loss, real pairs"),
        "amgan.loss.disc_mismatch":
            ("gauge", "discriminator loss, mismatched pairs"),
        "amgan.loss.disc_fake": ("gauge", "discriminator loss, generated"),
        "amgan.style_loss": ("gauge", "mean Gram style loss, last probe"),
        "vaccinate.gan.seconds": ("timer", "pipeline stage: GAN training"),
        "vaccinate.engineer.seconds":
            ("timer", "pipeline stage: security-HPC mining"),
        "vaccinate.augment.seconds":
            ("timer", "pipeline stage: harvest + adversarial hardening"),
        "vaccinate.fit.seconds":
            ("timer", "pipeline stage: detector training"),
        "vaccinate.calibrate.seconds":
            ("timer", "pipeline stage: threshold calibration"),
        "adaptive.flags": ("counter", "detector positives during runs"),
        "adaptive.secure.entries": ("counter", "secure-mode activations"),
        "adaptive.secure.exits": ("counter", "secure-mode deactivations"),
        "adaptive.windows.secure":
            ("counter", "sampling windows spent in secure mode"),
        "adaptive.windows.total":
            ("counter", "sampling windows observed by the controller"),
        "adaptive.fail_secure.latches":
            ("counter", "watchdog latches into always-secure mode"),
        "adaptive.detector.errors":
            ("counter", "detector faults seen by the health watchdog"),
    },
    "campaign": {
        "campaign.cells.total":
            ("gauge", "cells in the expanded campaign matrix"),
        "campaign.cells.completed":
            ("counter", "cells executed and durably cached this run"),
        "campaign.cells.cache_hits":
            ("counter", "cells replayed from verified cache entries"),
        "campaign.cells.holes":
            ("counter", "cells permanently failed (reported as holes)"),
        "campaign.cache.corrupt":
            ("counter", "cache entries quarantined after failed "
                        "verification"),
        "campaign.cell.seconds":
            ("timer", "per-cell wall clock (queue to resolution, "
                      "across retries)"),
    },
    "serve": {
        "serve.windows.ingested":
            ("counter", "windows accepted into the serving queue"),
        "serve.windows.scored":
            ("counter", "windows scored through the batched detector"),
        "serve.windows.shed":
            ("counter", "windows dropped by backpressure (forced secure)"),
        "serve.batches": ("counter", "matrix-matrix score_batch calls"),
        "serve.batch.seconds": ("timer", "wall-clock per scored batch"),
        "serve.batch.max_windows":
            ("gauge", "largest batch scored this run"),
        "serve.queue.depth": ("gauge", "queued windows after the last "
                                       "batch was formed"),
        "serve.queue.peak": ("gauge", "high-water mark of queued windows"),
        "serve.latency.p50_ms":
            ("gauge", "median enqueue-to-verdict latency"),
        "serve.latency.p95_ms":
            ("gauge", "95th-percentile enqueue-to-verdict latency"),
        "serve.latency.p99_ms":
            ("gauge", "99th-percentile enqueue-to-verdict latency"),
        "serve.tenants": ("gauge", "tenant streams seen this run"),
        "serve.tenants.latched":
            ("counter", "tenants latched into always-secure mode"),
        "serve.detector.faults":
            ("counter", "detector exceptions or non-finite scores "
                        "attributed to a tenant window"),
    },
    "arena": {
        "arena.generations":
            ("counter", "arms-race generations completed"),
        "arena.genomes.evaluated":
            ("counter", "genomes scored against the incumbent"),
        "arena.genomes.reused":
            ("counter", "genomes scored from the previous generation's "
                        "evaluation instead of being simulated again"),
        "arena.genomes.leaked":
            ("counter", "evaluated genomes whose channel actually "
                        "leaked (eligible survivors)"),
        "arena.genomes.holes":
            ("counter", "arena holes of any kind (crashed/diverged "
                        "evaluations, diverged retrains, gate "
                        "rollbacks, corrupt checkpoints)"),
        "arena.evasion.mean":
            ("gauge", "mean evasion rate of leaking genomes, last "
                      "generation"),
        "arena.evasion.max":
            ("gauge", "best evasion rate of leaking genomes, last "
                      "generation"),
        "arena.gate.promotions":
            ("counter", "candidate detectors promoted by the "
                        "regression gate"),
        "arena.gate.rollbacks":
            ("counter", "candidate detectors rolled back by the "
                        "regression gate"),
        "arena.checkpoint.corrupt":
            ("counter", "generation checkpoints rejected on resume "
                        "(missing shard or checksum mismatch)"),
        "arena.generation.seconds":
            ("timer", "wall-clock per arms-race generation"),
    },
    "cli": {
        "stage.arena.run": ("timer", "arena: the arms race "
                                     "(or the --smoke drill)"),
        "stage.campaign.run": ("timer", "campaign: matrix fan-out "
                                        "(or the --smoke check)"),
        "stage.collect.build": ("timer", "collect: corpus simulation"),
        "stage.collect.save": ("timer", "collect: dataset serialization"),
        "stage.train.load": ("timer", "train: corpus load"),
        "stage.train.vaccinate": ("timer", "train: vaccination pipeline"),
        "stage.train.evaluate": ("timer", "train: detector evaluation"),
        "stage.train.save": ("timer", "train: detector serialization"),
        "stage.report.load": ("timer", "report: corpus + detector load"),
        "stage.report.render": ("timer", "report: markdown rendering"),
        "stage.explain.load": ("timer", "explain: artifact load"),
        "stage.explain.weights": ("timer", "explain: hyperplane report"),
        "stage.explain.windows": ("timer", "explain: window explanations"),
        "stage.adaptive.load": ("timer", "adaptive: saved detector load"),
        "stage.adaptive.train": ("timer", "adaptive: corpus + vaccination"),
        "stage.adaptive.run": ("timer", "adaptive: gated attack runs"),
        "stage.serve.load": ("timer", "serve: detector + stream setup"),
        "stage.serve.run": ("timer", "serve: the streaming drive loop"),
        "stage.serve.report": ("timer", "serve: report serialization"),
    },
}

#: every known metric name -> (kind, description)
ALL_METRICS = {name: meta for layer in CATALOG.values()
               for name, meta in layer.items()}

#: event names the structured log may emit (checked against docs too)
EVENTS = {
    "cli.start": "command dispatch (command, argv)",
    "cli.end": "command completion (status, exit_code, duration)",
    "sim.run": "one simulation finished (program, cycles, ipc, halt)",
    "task.started": "worker launched (key, attempt)",
    "task.finished": "task completed (key, attempts, elapsed_s)",
    "task.retry": "failed attempt re-queued (key, kind, delay_s)",
    "task.quarantined": "task failed permanently (key, kind, message)",
    "amgan.round": "style-loss probe (iteration, style_loss)",
    "vaccinate.stage": "vaccination stage boundary (stage)",
    "vaccinate.resumed":
        "training resumed from checkpoint (iteration, parent_run)",
    "guard.trip": "training anomaly detected (stage, step, kind, action)",
    "guard.rollback": "training rolled back to snapshot (step, to_step)",
    "guard.checkpoint": "training checkpoint written (stage, iteration)",
    "guard.restore": "training checkpoint restored (stage, iteration)",
    "adaptive.secure_enter": "secure mode enabled (commit_index, mode)",
    "adaptive.secure_exit": "secure mode disabled (commit_index)",
    "adaptive.fail_secure":
        "watchdog latched always-secure mode (reason, detail)",
    "manifest.written": "run manifest persisted (path)",
    "campaign.started":
        "campaign fan-out begun (cells, resume, spec_fingerprint)",
    "campaign.cell": "cell resolved ok (key, state, cache_hit)",
    "campaign.hole": "cell quarantined as a hole (key, kind, message)",
    "campaign.cache.quarantined":
        "corrupt cache entry moved to quarantine (key, fingerprint, "
        "reason)",
    "campaign.finished":
        "campaign completed (completed, holes, cache_hits, exit_code)",
    "arena.started":
        "arms race begun (generations, population, resume, "
        "spec_fingerprint)",
    "arena.generation":
        "one generation resolved (generation, evaluated, reused, "
        "leaked, evasion_mean, promoted)",
    "arena.gate":
        "regression-gate verdict (generation, promoted, reasons)",
    "arena.hole":
        "arena failure quarantined as a hole (generation, kind, key, "
        "message)",
    "arena.resumed":
        "arms race resumed from a generation checkpoint (generation, "
        "parent_run)",
    "arena.finished":
        "arms race completed (generations, promotions, rollbacks, "
        "holes, exit_code)",
    "serve.started":
        "streaming service begun (tenants, duration, batch_window, "
        "queue_limit)",
    "serve.shed":
        "backpressure drop: queued windows forced secure (tenant, "
        "commit_index, depth)",
    "serve.tenant_latched":
        "tenant latched always-secure (tenant, reason)",
    "serve.detector_fault":
        "detector fault attributed to a window (tenant, kind)",
    "serve.finished":
        "streaming service completed (ingested, scored, shed, latched)",
}


def is_known_metric(name):
    """Whether ``name`` is in the canonical catalog."""
    return name in ALL_METRICS
