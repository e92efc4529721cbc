"""Attack genomes: the heritable representation the arms race evolves.

A genome is a small, canonical JSON dict describing one fuzzed,
evasion-wrapped attack — the same mutation space the static fuzzers
(:mod:`repro.attacks.fuzzing`: Transynther / TRRespass / Osiris style)
draw from, but made *explicit* so the arena can persist a population in
a generation checkpoint, fingerprint it, mutate it under a checkpointed
RNG, and rebuild the exact attack instance on resume.

Everything here is a pure function of (genome, seed): building the same
genome twice yields bit-identical programs (the evasion wrapper derives
its dilution RNG from the genome seed), and sampling/mutation draw only
from the ``numpy.random.Generator`` passed in — which the arena loop
checkpoints, so a resumed run breeds the exact same offspring.
"""

from repro.attacks.base import default_secret_bits
from repro.attacks.cache_attacks import FlushFlush, FlushReload, PrimeProbe
from repro.attacks.evasion import EvasiveAttack
from repro.attacks.mds import (
    Fallout, LVI, MedusaCacheIndexing, MedusaShadowRepMov, MedusaUnaligned,
)
from repro.attacks.meltdown import Meltdown
from repro.attacks.other import RDRNDCovert
from repro.attacks.rowhammer import DRAMA, Rowhammer, TRRespass, _VICTIM_ROW
from repro.runtime.digest import fingerprint

#: the three mutation tools, mirroring ``attacks/fuzzing.py``
TRANSYNTHER = "transynther"
TRRESPASS = "trrespass"
OSIRIS = "osiris"

TOOLS = (TRANSYNTHER, TRRESPASS, OSIRIS)

#: per-tool attack families (name -> class), sorted for stable draws
FAMILIES = {
    TRANSYNTHER: {cls.__name__: cls for cls in (
        Meltdown, Fallout, LVI, MedusaCacheIndexing, MedusaUnaligned,
        MedusaShadowRepMov)},
    OSIRIS: {cls.__name__: cls for cls in (
        FlushReload, FlushFlush, PrimeProbe, DRAMA, RDRNDCovert)},
}

_SECRET_N = {TRANSYNTHER: (3, 4, 5), OSIRIS: (3, 4)}
_SIDES = (2, 3, 4, 6)
_OFFSET_POOL = (-3, -2, -1, 1, 2, 3)


def _round4(x):
    """Rates are rounded to 4 decimals so a genome's canonical JSON —
    and therefore its key and checkpoint bytes — is stable."""
    return float(round(float(x), 4))


def genome_key(genome):
    """Short content-addressed identifier (stable across runs)."""
    return fingerprint(genome)[:12]


def sample_genome(rng, tool=None):
    """Draw one genome from the mutation space using ``rng`` only."""
    if tool is None:
        tool = TOOLS[int(rng.integers(0, len(TOOLS)))]
    genome = {
        "tool": tool,
        "seed": int(rng.integers(1, 1 << 16)),
        "nop_rate": _round4(rng.uniform(0.0, 0.5)),
        "prefetch_rate": _round4(rng.uniform(0.0, 0.25)),
        "camouflage_actors": int(rng.integers(0, 3)),
    }
    if tool == TRRESPASS:
        sides = _SIDES[int(rng.integers(0, len(_SIDES)))]
        offsets = rng.choice(_OFFSET_POOL, size=sides, replace=False)
        genome["sides"] = int(sides)
        genome["offsets"] = sorted(int(o) for o in offsets)
        genome["iterations"] = int(rng.integers(340, 520))
    else:
        families = sorted(FAMILIES[tool])
        genome["family"] = families[int(rng.integers(0, len(families)))]
        choices = _SECRET_N[tool]
        genome["secret_n"] = int(choices[int(rng.integers(0, len(choices)))])
    return genome


def mutate_genome(genome, rng):
    """One mutation step: jitter the evasion rates, reseed, or change the
    structural knobs (family / aggressor pattern).  Returns a new dict;
    the parent is never modified."""
    child = dict(genome)
    roll = rng.uniform(0.0, 1.0)
    if roll < 0.5:
        # bandwidth-evasion jitter: nudge the dilution rates
        child["nop_rate"] = _round4(
            min(0.5, max(0.0, child["nop_rate"] + rng.uniform(-0.1, 0.1))))
        child["prefetch_rate"] = _round4(
            min(0.25, max(0.0,
                          child["prefetch_rate"] + rng.uniform(-0.05, 0.05))))
        child["camouflage_actors"] = int(rng.integers(0, 3))
    elif roll < 0.8:
        # reseed: new gadget composition / secret within the same family
        child["seed"] = int(rng.integers(1, 1 << 16))
    else:
        # structural mutation: re-draw the tool-specific knobs
        fresh = sample_genome(rng, tool=child["tool"])
        for key in ("family", "secret_n", "sides", "offsets", "iterations"):
            if key in fresh:
                child[key] = fresh[key]
    return child


def seed_population(count, rng):
    """The generation-0 population: tools round-robined so every fuzzer
    style is represented, parameters drawn from ``rng``."""
    return [sample_genome(rng, tool=TOOLS[i % len(TOOLS)])
            for i in range(count)]


def build_attack(genome):
    """Instantiate the evasion-wrapped attack a genome describes."""
    tool = genome["tool"]
    seed = genome["seed"]
    if tool == TRRESPASS:
        cls = TRRespass if genome["sides"] > 2 else Rowhammer
        base = cls(seed=seed)
        base.aggressor_rows = tuple(sorted(_VICTIM_ROW + o
                                           for o in genome["offsets"]))
        base.iterations = genome["iterations"]
    else:
        cls = FAMILIES[tool][genome["family"]]
        bits = default_secret_bits(seed, n=genome["secret_n"])
        base = cls(secret_bits=bits, seed=seed)
    attack = EvasiveAttack(
        base,
        nop_rate=genome["nop_rate"],
        prefetch_rate=genome["prefetch_rate"],
        camouflage_actors=genome["camouflage_actors"],
        seed=seed,
    )
    attack.name = f"arena:{tool}:{genome_key(genome)}"
    return attack
