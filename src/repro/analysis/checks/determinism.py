"""Determinism checks, and the one nondeterminism-source classifier.

The reproduction's core claims — bit-identical counter streams between
the optimized and reference cores, bit-exact checkpoint/resume, stable
feature matrices — all die the moment simulation, training, or feature
code reads a wall clock or an unseeded RNG.  PerSpectron-style HPC
detectors are only as trustworthy as the determinism of the traces that
feed them (FortuneTeller, Gulmezoglu et al. 2019), so these checks ban
the nondeterminism sources statically in the layers that produce
counters, features, and model state: ``sim/``, ``ml/``, ``core/``,
``data/``, and — since the arena made fuzzed attack programs a training
input — ``attacks/`` and ``arena/`` (every fuzzer/evasion draw must come
from an explicitly seeded ``random.Random``).

:func:`nondeterminism_sources` is the single classifier the three
checks below report from.  What these layers persist is checked
directly instead: ``tests/test_determinism_oracle.py`` runs every
persisting CLI flow twice under perturbed conditions and diffs every
byte it writes (``docs/static_analysis.md``, "Determinism oracle").

``time.perf_counter``/``time.monotonic`` stay legal: they feed obs
timers only, never counters or features.
"""

import ast

from repro.analysis.engine import Check, register
from repro.analysis.source import dotted_name

#: the layers whose outputs must be a pure function of (workload, seed)
DETERMINISTIC_SCOPE = ("src/repro/sim/", "src/repro/ml/",
                       "src/repro/core/", "src/repro/data/",
                       "src/repro/attacks/", "src/repro/arena/")

_WALL_CLOCK = {"time.time", "time.time_ns", "time.ctime",
               "time.localtime", "time.gmtime", "time.strftime"}
_DATETIME_FNS = {"now", "utcnow", "today"}
_NP_GLOBAL = {"rand", "randn", "randint", "random", "random_sample",
              "ranf", "sample", "choice", "shuffle", "permutation",
              "uniform", "normal", "standard_normal", "seed", "bytes",
              "exponential", "poisson", "binomial", "beta", "gamma"}
_PY_RANDOM = {"random", "randint", "randrange", "choice", "choices",
              "shuffle", "sample", "uniform", "gauss", "normalvariate",
              "expovariate", "betavariate", "triangular", "seed",
              "getrandbits", "vonmisesvariate"}


def _call_source(name, call):
    """``(check, description)`` when a call to the dotted ``name`` is a
    nondeterminism source, else None."""
    parts = name.split(".")
    if name in _WALL_CLOCK or (parts[-1] in _DATETIME_FNS and (
            "datetime" in parts[:-1] or "date" in parts[:-1])):
        return "forbidden-clock", f"wall-clock read `{name}()`"
    unseeded = not call.args and not call.keywords
    if len(parts) == 3 and parts[0] in ("np", "numpy") \
            and parts[1] == "random":
        if parts[2] in ("default_rng", "RandomState"):
            return ("unseeded-rng", f"unseeded `{name}()`") if unseeded \
                else None
        if parts[2] in _NP_GLOBAL:
            return "unseeded-rng", f"global NumPy RNG `{name}(...)`"
    elif len(parts) == 2 and parts[0] == "random":
        if parts[1] == "Random":
            return ("unseeded-rng", f"unseeded `{name}()`") if unseeded \
                else None
        if parts[1] in _PY_RANDOM:
            return "unseeded-rng", f"global stdlib RNG `{name}(...)`"
    return None


def _iterables(node):
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        return [gen.iter for gen in node.generators]
    return []


def nondeterminism_sources(nodes):
    """Yield ``(check, description, node, data)`` for every
    nondeterminism source among ``nodes`` (a file's walked AST), names
    read as written.

    ``check`` names the check that bans the source in deterministic
    code: ``forbidden-clock``, ``unseeded-rng`` or ``set-iteration``.
    """
    for sub in nodes:
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is None:
                continue
            found = _call_source(name, sub)
            if found is not None:
                yield found[0], found[1], sub, {"call": name}
        else:
            for it in _iterables(sub):
                if isinstance(it, (ast.Set, ast.SetComp)) or (
                        isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Name)
                        and it.func.id in ("set", "frozenset")):
                    yield "set-iteration", "unordered set iteration", \
                        it, None


class _DeterminismCheck(Check):
    """Report the classifier's sources of one kind in deterministic
    code."""

    include = DETERMINISTIC_SCOPE
    advice = ""

    def check(self, source):
        for check, description, node, data in \
                nondeterminism_sources(source.nodes):
            if check == self.name:
                yield self.finding_at(
                    source, node,
                    f"{description} in deterministic code; {self.advice}",
                    data=data)


@register
class ForbiddenClock(_DeterminismCheck):
    """No wall-clock reads in counter/feature/model-producing code:
    counter streams and training trajectories must be a pure function
    of (workload, seed); wall-clock values leak into features and break
    bit-exact replay/resume."""

    name = "forbidden-clock"
    description = ("wall-clock read (time.time / datetime.now / ...) in "
                   "deterministic code")
    advice = ("timestamps belong to the obs layer (elapsed-time "
              "measurement may use time.perf_counter/monotonic)")


@register
class UnseededRng(_DeterminismCheck):
    """No module-level / unseeded RNG in deterministic code: the global
    NumPy/stdlib RNG is shared mutable state, so any import-order or
    call-order change silently reshuffles every downstream draw."""

    name = "unseeded-rng"
    description = ("module-level or unseeded RNG (np.random.<fn>, "
                   "random.<fn>, default_rng()) in deterministic code")
    advice = ("draw from an explicitly seeded np.random.default_rng(seed) "
              "or random.Random(seed) so runs replay bit-exactly")


@register
class SetIteration(_DeterminismCheck):
    """No iteration over bare sets in counter/feature-producing code:
    set order depends on insertion history and (for str keys) on
    PYTHONHASHSEED, so anything derived from it differs between runs."""

    name = "set-iteration"
    description = ("iteration over an unordered set() / set literal in "
                   "deterministic code")
    advice = "wrap it in sorted(...) for a stable order"
