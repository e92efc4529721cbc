"""Genome representation: canonical JSON dicts, deterministic sampling/
mutation under an explicit RNG, and faithful attack reconstruction."""

import json

import numpy as np
import pytest

from repro.arena.genome import (
    FAMILIES, TOOLS, build_attack, genome_key, mutate_genome, sample_genome,
    seed_population,
)
from repro.attacks import EvasiveAttack
from repro.attacks.rowhammer import Rowhammer, TRRespass
from repro.runtime.digest import canonical


def rng(seed=11):
    return np.random.default_rng(seed)


class TestSampling:
    def test_round_robin_tools(self):
        population = seed_population(6, rng())
        assert [g["tool"] for g in population] == list(TOOLS) * 2

    def test_same_seed_same_population(self):
        a = seed_population(9, rng(4))
        b = seed_population(9, rng(4))
        assert a == b

    def test_keys_unique_within_population(self):
        keys = [genome_key(g) for g in seed_population(12, rng())]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("tool", TOOLS)
    def test_fields_within_mutation_space(self, tool):
        for _ in range(8):
            g = sample_genome(rng(), tool=tool)
            assert g["tool"] == tool
            assert 1 <= g["seed"] < 1 << 16
            assert 0.0 <= g["nop_rate"] <= 0.5
            assert 0.0 <= g["prefetch_rate"] <= 0.25
            assert g["camouflage_actors"] in (0, 1, 2)
            if tool == "trrespass":
                assert g["sides"] in (2, 3, 4, 6)
                assert len(g["offsets"]) == g["sides"]
                assert g["offsets"] == sorted(g["offsets"])
                assert 340 <= g["iterations"] < 520
            else:
                assert g["family"] in FAMILIES[tool]

    def test_genomes_are_json_stable(self):
        """The canonical form must survive a JSON round trip unchanged —
        genomes live in checkpoint shards and worker payloads."""
        for g in seed_population(6, rng()):
            assert json.loads(canonical(g)) == g
            assert genome_key(json.loads(canonical(g))) == genome_key(g)


class TestMutation:
    def test_deterministic_for_same_rng_state(self):
        parent = sample_genome(rng(2))
        assert mutate_genome(parent, rng(7)) == mutate_genome(parent, rng(7))

    def test_mutant_stays_in_mutation_space(self):
        parent = sample_genome(rng(3), tool="trrespass")
        for i in range(12):
            child = mutate_genome(parent, rng(i))
            assert child["tool"] == "trrespass"
            assert 0.0 <= child["nop_rate"] <= 0.5
            assert 0.0 <= child["prefetch_rate"] <= 0.25
            build_attack(child)          # must always reconstruct

    def test_mutation_changes_the_key(self):
        parent = sample_genome(rng(5))
        children = [mutate_genome(parent, rng(i)) for i in range(6)]
        assert any(genome_key(c) != genome_key(parent) for c in children)


class TestBuildAttack:
    def test_wraps_in_evasion_with_arena_name(self):
        g = sample_genome(rng(1), tool="transynther")
        attack = build_attack(g)
        assert isinstance(attack, EvasiveAttack)
        assert attack.name == f"arena:transynther:{genome_key(g)}"

    def test_trrespass_sides_pick_the_class(self):
        many = dict(sample_genome(rng(1), tool="trrespass"),
                    sides=4, offsets=[-2, -1, 1, 2])
        two = dict(sample_genome(rng(1), tool="trrespass"),
                   sides=2, offsets=[-1, 1])
        assert isinstance(build_attack(many).base, TRRespass)
        assert isinstance(build_attack(two).base, Rowhammer)
        assert len(build_attack(many).base.aggressor_rows) == 4

    @pytest.mark.parametrize("tool", TOOLS)
    def test_rebuild_is_bit_identical(self, tool):
        """Workers rebuild genomes from their canonical dicts; the program
        must not depend on builder identity or call order."""
        g = sample_genome(rng(9), tool=tool)
        prog_a, _ = build_attack(g).build()
        prog_b, _ = build_attack(json.loads(canonical(g))).build()
        ops_a = [(i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
                 for i in prog_a.instructions]
        ops_b = [(i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
                 for i in prog_b.instructions]
        assert ops_a == ops_b
