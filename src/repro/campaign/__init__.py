"""``repro.campaign`` — fault-isolated evaluation-matrix orchestration.

The campaign layer turns the paper's headline evaluation — the
{workload x attack x defense-mode x sampling-period} sweeps behind
Figs 14-20 — from a single fragile process into a declarative,
parallel, crash-resumable pipeline:

* :mod:`~repro.campaign.spec` — :class:`CampaignSpec` declares the
  matrix; expansion is deterministic and every cell is
  content-addressed by a SHA-256 config fingerprint;
* :mod:`~repro.campaign.cache` — :class:`CellCache` persists completed
  cells atomically + durably, verifies every read end to end, and
  quarantines corrupt entries instead of trusting them;
* :mod:`~repro.campaign.orchestrator` — :func:`run_campaign` fans
  cells out over isolated :class:`repro.runtime.TaskRunner` workers,
  degrades failures into explicit holes (crash / timeout / divergent /
  ``cache_corrupt``), writes the aggregate + campaign manifest
  atomically when the run starts and when it ends, and resumes
  bit-identically from the cache;
* :mod:`~repro.campaign.smoke` — the CI-run chaos proof of all of the
  above (``repro campaign --smoke``).

See ``docs/campaigns.md`` for the spec format, cache keying, the
resume + exit-code contract, and failure-hole reporting.
"""

from repro.campaign.cache import CELL_SCHEMA, CellCache
from repro.campaign.orchestrator import (
    AGGREGATE_NAME, CAMPAIGN_SCHEMA, MANIFEST_NAME, CampaignResult,
    CellStatus, build_campaign_manifest, read_campaign_manifest,
    render_aggregate, run_campaign, run_cell, validate_cell_result,
)
from repro.campaign.smoke import run_smoke
from repro.campaign.spec import (
    ATTACK, WORKLOAD, CampaignCell, CampaignSpec, CampaignSpecError,
    default_spec,
)
from repro.runtime.errors import CampaignError, CellCorruptError

__all__ = [
    "CELL_SCHEMA", "CellCache",
    "AGGREGATE_NAME", "CAMPAIGN_SCHEMA", "MANIFEST_NAME",
    "CampaignResult", "CellStatus", "build_campaign_manifest",
    "read_campaign_manifest", "render_aggregate", "run_campaign",
    "run_cell", "validate_cell_result",
    "run_smoke",
    "ATTACK", "WORKLOAD", "CampaignCell", "CampaignSpec",
    "CampaignSpecError", "default_spec",
    "CampaignError", "CellCorruptError",
]
