"""Declarative campaign matrix specs.

A :class:`CampaignSpec` names the axes of an evaluation matrix —
{workload x attack x defense-mode x sampling-period x tenancy x seed} — and
:meth:`~CampaignSpec.expand` turns it into the flat, deterministic list
of :class:`CampaignCell` objects the orchestrator fans out.  Every cell
carries a **content-addressed fingerprint**: the SHA-256 of its
canonical configuration (:func:`repro.runtime.digest.fingerprint`, over
every field but the declared opt-out ``index``), so an identical cell
always lands on the same cache entry regardless of which campaign,
host, or day produced it — and a field added later is hashed by
construction.

Specs validate eagerly — unknown workload/attack/defense names, bad
periods, or an empty matrix raise :class:`CampaignSpecError` before any
worker is launched (the CLI maps this to exit 2, the fatal tier).
"""

import functools
import json
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from repro.runtime.digest import fingerprint, hashed_fields


class CampaignSpecError(ValueError):
    """The spec cannot describe a runnable matrix (unknown names, bad
    periods, empty matrix, unreadable spec file)."""


#: cell kinds
WORKLOAD = "wl"
ATTACK = "atk"


@dataclass(frozen=True)
class CampaignCell:
    """One point of the evaluation matrix.

    ``index`` is the cell's stable position in the expanded matrix (the
    aggregation order); ``fingerprint`` content-addresses the cell in
    the :class:`~repro.campaign.cache.CellCache`.
    """

    index: int = field(metadata={
        "fingerprint": False,
        "why": "matrix position only: two campaigns that order the same "
               "cell differently must share its cache entry"})
    kind: str                    # WORKLOAD | ATTACK
    name: str
    defense: str
    period: int
    seed: int
    scale: int
    max_cycles: Optional[int]
    tenancy: str = "single"      # "single" | "smt" (co-tenant noise)

    @property
    def key(self):
        """Human-readable stable identifier (unique by construction).
        Single-tenancy keys keep their historical shape; SMT cells carry
        an explicit suffix."""
        base = (f"{self.kind}-{self.name}-{self.defense}"
                f"-p{self.period}-s{self.seed}")
        return base if self.tenancy == "single" else f"{base}-{self.tenancy}"

    def config(self):
        """The canonical configuration that determines this cell's
        result — exactly what the fingerprint hashes."""
        return hashed_fields(self)

    @functools.cached_property
    def fingerprint(self):
        """SHA-256 of :meth:`config`, hashed once per (frozen) cell."""
        return fingerprint(self)


def _known_names():
    """(workload names, attack names, defense values) — imported lazily
    so spec parsing does not drag the simulator in."""
    from repro.attacks import ATTACKS_BY_NAME
    from repro.sim.config import DefenseMode
    from repro.workloads import WORKLOAD_BUILDERS
    return (set(WORKLOAD_BUILDERS), set(ATTACKS_BY_NAME),
            {m.value for m in DefenseMode})


@dataclass
class CampaignSpec:
    """The declarative matrix: axes plus shared run parameters.

    ``workloads``/``attacks`` are source names (either may be empty,
    not both); ``defenses`` are :class:`~repro.sim.config.DefenseMode`
    values; ``periods`` are sampling periods in committed instructions;
    ``seeds`` instantiate each source per seed.  ``max_cycles`` caps
    every cell's simulation (``None`` = each source's own default).
    """

    workloads: Tuple[str, ...] = ()
    attacks: Tuple[str, ...] = ()
    defenses: Tuple[str, ...] = ("none",)
    periods: Tuple[int, ...] = (100,)
    seeds: Tuple[int, ...] = (0,)
    tenancies: Tuple[str, ...] = ("single",)
    scale: int = 2
    max_cycles: Optional[int] = None

    def __post_init__(self):
        self.workloads = tuple(self.workloads)
        self.attacks = tuple(self.attacks)
        self.defenses = tuple(self.defenses)
        self.periods = tuple(int(p) for p in self.periods)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.tenancies = tuple(self.tenancies)
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self):
        known_wl, known_atk, known_def = _known_names()
        for name in self.workloads:
            if name not in known_wl:
                raise CampaignSpecError(
                    f"unknown workload {name!r}; choose from "
                    f"{sorted(known_wl)}")
        for name in self.attacks:
            if name not in known_atk:
                raise CampaignSpecError(
                    f"unknown attack {name!r}; choose from "
                    f"{sorted(known_atk)}")
        for mode in self.defenses:
            if mode not in known_def:
                raise CampaignSpecError(
                    f"unknown defense {mode!r}; choose from "
                    f"{sorted(known_def)}")
        for period in self.periods:
            if period <= 0:
                raise CampaignSpecError(
                    f"sampling period must be positive, got {period}")
        for tenancy in self.tenancies:
            if tenancy not in ("single", "smt"):
                raise CampaignSpecError(
                    f"unknown tenancy {tenancy!r}; choose from "
                    f"['single', 'smt']")
        if self.scale <= 0:
            raise CampaignSpecError(f"scale must be positive, "
                                    f"got {self.scale}")
        if self.max_cycles is not None and self.max_cycles <= 0:
            raise CampaignSpecError(f"max_cycles must be positive, "
                                    f"got {self.max_cycles}")
        if not (self.workloads or self.attacks) or not self.defenses \
                or not self.periods or not self.seeds or not self.tenancies:
            raise CampaignSpecError(
                "empty matrix: need at least one source, defense, "
                "period, tenancy and seed")
        return self

    # -- expansion ------------------------------------------------------------

    def expand(self):
        """The flat cell list, in deterministic aggregation order
        (workloads before attacks; then name, defense, period, tenancy,
        seed — the nesting order of the axes)."""
        cells = []
        sources = [(WORKLOAD, n) for n in self.workloads] + \
                  [(ATTACK, n) for n in self.attacks]
        for kind, name in sources:
            for defense in self.defenses:
                for period in self.periods:
                    for tenancy in self.tenancies:
                        for seed in self.seeds:
                            cells.append(CampaignCell(
                                index=len(cells), kind=kind, name=name,
                                defense=defense, period=period, seed=seed,
                                scale=self.scale,
                                max_cycles=self.max_cycles,
                                tenancy=tenancy))
        return cells

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self):
        return hashed_fields(self)

    @property
    def fingerprint(self):
        """Content-addresses the whole matrix (resume guard)."""
        return fingerprint(self)

    @classmethod
    def from_dict(cls, mapping):
        if not isinstance(mapping, dict):
            raise CampaignSpecError(
                f"spec must be a JSON object, got {type(mapping).__name__}")
        unknown = set(mapping) - {f.name for f in fields(cls)}
        if unknown:
            raise CampaignSpecError(
                f"unknown spec fields: {sorted(unknown)}")
        try:
            return cls(**mapping)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, CampaignSpecError):
                raise
            raise CampaignSpecError(f"bad spec: {exc}") from exc

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                mapping = json.load(f)
        except (OSError, ValueError) as exc:
            raise CampaignSpecError(
                f"unreadable spec file {path}: {exc}") from exc
        return cls.from_dict(mapping)


def default_spec(**overrides):
    """The full-figure-suite matrix: every workload and every attack of
    the paper's evaluation, at the paper's 100-instruction period, on
    the undefended core.  Axes are overridable piecemeal."""
    from repro.attacks import ALL_ATTACKS
    from repro.workloads import WORKLOAD_BUILDERS
    base = {"workloads": tuple(WORKLOAD_BUILDERS),
            "attacks": tuple(cls.name for cls in ALL_ATTACKS),
            "defenses": ("none",), "periods": (100,), "seeds": (0,)}
    base.update(overrides)
    return CampaignSpec(**base)
