"""Declarative configuration of the whole-program checks.

The check *algorithms* are generic (they run on any
:class:`~repro.analysis.index.ProjectIndex`); everything repo-specific —
what persists state, where the fail-secure boundary lies — is declared
here in :data:`DEFAULT_CONFIG`.  Tests build small fixture trees and
pass their own :class:`FlowConfig` to :func:`repro.analysis.engine.run`,
so every check is exercised without touching the real tree.

Adding a persistence sink or fail-secure region is a one-line change
here (see the add-a-check recipe in ``docs/static_analysis.md``).
"""

from dataclasses import dataclass
from typing import Tuple


@dataclass
class FlowConfig:
    """Everything the whole-program checks need to know about one
    project."""

    # -- determinism-taint -------------------------------------------------
    #: call names (last dotted component) that always persist state
    taint_sink_names: frozenset = frozenset()
    #: fully-qualified method names that persist state (resolved
    #: through the call graph, e.g. CheckpointStore.put)
    taint_sink_methods: frozenset = frozenset()
    #: relpath prefixes taint never propagates *into* (and whose own
    #: functions are never reported): the observability boundary
    taint_barriers: Tuple[str, ...] = ()

    # -- fail-secure-flow --------------------------------------------------
    #: relpath prefixes of the fail-secure boundary set
    failsecure_boundaries: Tuple[str, ...] = ()
    #: call names that count as latch/shed sinks inside a handler
    failsecure_sinks: frozenset = frozenset({"_latch", "shed_window"})


#: the real repository's contract surface
DEFAULT_CONFIG = FlowConfig(
    taint_sink_names=frozenset({
        "atomic_write_bytes",      # every durable artifact goes through it
        "write_sealed",            # detectors, corpora, checkpoints, cells
        "fingerprint",             # every content address and resume guard
        "write_manifest",          # run manifests
        "genome_key",              # content-addresses arena genomes
    }),
    taint_sink_methods=frozenset({
        "repro.runtime.checkpoint.CheckpointStore.put",
        "repro.campaign.cache.CellCache.put",
    }),
    # the observability layer records wall-clock (event timestamps,
    # manifest start/finish) BY DESIGN and none of it feeds replayed
    # state; taint stops at its edge instead of flooding every caller
    taint_barriers=("src/repro/obs/",),
    failsecure_boundaries=(
        "src/repro/defenses/",
        "src/repro/serve/service.py",
        "src/repro/arena/gate.py",
    ),
)
