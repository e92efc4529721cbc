#!/usr/bin/env bash
# Fast CI tier: everything except the slow benchmark/integration tests,
# with a per-test wall-clock deadline so a wedged test fails loudly
# instead of hanging the pipeline.
#
#   scripts/ci.sh                 # fast tier, 180s per-test deadline
#   REPRO_TEST_TIMEOUT=60 scripts/ci.sh -k runtime   # extra pytest args
#
# The full tier (slow tests + benchmarks) remains:
#   python -m pytest -x -q && python -m pytest benchmarks -q
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_TEST_TIMEOUT="${REPRO_TEST_TIMEOUT:-180}"

# static-analysis gate over the whole tree, one parse per file:
# determinism, atomic IO, one digest module, catalog names, error
# contracts (one handler in the fail-secure boundary) and Markdown
# links — see docs/static_analysis.md.  Any unsuppressed finding fails
# the run; the JSON findings land next to the run for manifests/ops
# tooling.  Persisted-state determinism is the fast tier's double-run
# oracle, tests/test_determinism_oracle.py.
python -m repro.analysis --json-out .analysis-findings.json

# fast bit-exactness smoke: optimized scheduler vs reference spec on a
# workload, an attack, and an InvisiSpec mode (~2s; full matrix +
# throughput numbers: python scripts/bench_sim.py)
python scripts/bench_sim.py --check-only

# fast resume smoke: the guarded/checkpointed training path end to end
# (toy GAN, a couple of seconds) — kill, resume, assert bit-exactness
python scripts/resume_smoke.py

# campaign resumability smoke (~5s): chaos-seeded matrix (worker kill +
# cache corruption) must degrade to classified holes with exit 1, and
# --resume must hit >=90% cache and reproduce the clean aggregate
# bit-for-bit — see docs/campaigns.md
python -m repro campaign --smoke --no-manifest

# arena smoke (~6s): clean arms race exits 0 and scores at least one
# carried elite from its previous evaluation, SIGKILL mid-generation +
# --resume (which re-simulates those elites) reproduces the report
# bit-for-bit, and a worker kill plus a sabotaged candidate degrade to
# classified holes with the gate rolled back — see docs/arena.md
python -m repro arena --smoke --no-manifest

# serving smoke (~5s): batch==single bit-identity, batched-kernel and
# end-to-end windows/sec floors, and a real CLI run that must exit 0
# with its report + manifest written — see docs/serving.md (full
# numbers: python scripts/bench_serve.py)
python -m repro serve --smoke --no-manifest

exec python -m pytest -x -q -m "not slow" "$@"
