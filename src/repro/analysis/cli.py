"""``python -m repro.analysis`` — the static-analysis gate.

::

    python -m repro.analysis [PATH ...] [--root DIR]
        [--select CHECK[,CHECK]] [--ignore CHECK[,CHECK]]
        [--json-out FILE] [--list]

PATH defaults to the root, which defaults to the working directory.
Exit-code contract (relied on by ``scripts/ci.sh``):

* ``0`` — no findings;
* ``1`` — at least one finding (each printed as ``path:line:col``);
* ``2`` — usage error (unknown check, nonexistent path, bad flags).

``--json-out`` also writes the ``repro-analysis/2`` payload
(atomically, via :mod:`repro.runtime.atomic`), so CI can show text to
humans and hand JSON to manifests and ops tooling in one run.
"""

import argparse
import json
import sys
import time

from repro.analysis.engine import AnalysisUsageError, resolve_checks, run

JSON_SCHEMA = "repro-analysis/2"


def _csv(value):
    return [item.strip() for item in value.split(",") if item.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="static-analysis gate: per-file contract checks "
                    "over one parse of the tree "
                    "(see docs/static_analysis.md)")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to analyse "
                             "(default: the root)")
    parser.add_argument("--root", default=".",
                        help="root the check scopes are relative to "
                             "(default: cwd; run from the repo root)")
    parser.add_argument("--select", type=_csv, default=None,
                        metavar="CHECK[,CHECK]",
                        help="run only these checks")
    parser.add_argument("--ignore", type=_csv, default=None,
                        metavar="CHECK[,CHECK]",
                        help="skip these checks")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="also write the JSON payload to this file "
                             "(atomic write)")
    parser.add_argument("--list", action="store_true",
                        help="print the selected checks and exit")
    return parser


def render_text(result, elapsed):
    """One ``path:line:col`` line per finding plus a one-line summary."""
    lines = [f"{f.location()}: {f.rule}: {f.message}"
             for f in result.findings]
    by_kind = ", ".join(f"{n} {kind}" for kind, n in
                        sorted(result.files.items()))
    status = f"{len(result.findings)} finding(s)" if result.findings \
        else "clean"
    lines.append(
        f"repro-analysis: {status} — {sum(result.files.values())} files "
        f"({by_kind}), {len(result.checks)} checks, {result.suppressed} "
        f"suppressed, {elapsed:.2f}s")
    return "\n".join(lines)


def render_json(result):
    """JSON-serializable dict of the full run outcome."""
    return {
        "schema": JSON_SCHEMA,
        "root": str(result.root),
        "checks": [{"name": check.name, "kind": check.kind,
                    "description": check.description}
                   for check in result.checks],
        "files": dict(result.files),
        "summary": {"findings": len(result.findings),
                    "suppressed": result.suppressed},
        "findings": [f.to_dict() for f in result.findings],
    }


def _list(checks):
    for check in checks:
        scope = ", ".join(check.include) or "(everywhere)"
        if check.exclude:
            scope += f" except {', '.join(check.exclude)}"
        print(f"{check.name:18s} [{check.kind}] {scope}")
        print(f"{'':18s} {check.description}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.list:
            _list(resolve_checks(select=args.select, ignore=args.ignore))
            return 0
        result = run(args.paths or [args.root], root=args.root,
                     select=args.select, ignore=args.ignore)
    except AnalysisUsageError as exc:
        print(f"repro-analysis: error: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        from repro.runtime.atomic import atomic_write_bytes
        atomic_write_bytes(
            args.json_out,
            (json.dumps(render_json(result), indent=2) + "\n").encode())
    print(render_text(result, time.perf_counter() - started))
    return 1 if result.findings else 0
