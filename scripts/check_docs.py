#!/usr/bin/env python
"""Docs link checker: fail on broken relative links and anchors in the
repo's Markdown files.

Now a thin wrapper over the ``docs-links`` rule of
``repro.analysis.lint`` (see ``docs/static_analysis.md``); CLI and exit
behaviour are unchanged.  Scans every tracked ``*.md`` (repo root,
``docs/``, ``benchmarks/``, ``examples/`` — anything except
virtualenv/cache directories), extracts ``[text](target)`` links, and
verifies that each relative target exists on disk and that its
``#anchor``, if any, names a heading of the target Markdown file
(GitHub's slug; ``#`` lines in fenced code are not headings).  A bare
``#anchor`` resolves against the linking file.  External links
(``http(s)://``, ``mailto:``) are skipped.

Exit status 0 when every relative link resolves, 1 otherwise (one line
per problem: ``file:line: broken link -> target`` or
``file:line: broken anchor -> target``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.lint import run_lint  # noqa: E402


def main():
    result = run_lint([ROOT], root=ROOT, select=["docs-links"])
    for finding in result.findings:
        print(f"{finding.path}:{finding.line}: {finding.message}")
    if result.findings:
        print(f"docs check: {len(result.findings)} broken link(s)",
              file=sys.stderr)
        return 1
    print(f"docs check: {result.files['markdown']} markdown files, "
          f"all relative links ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
