"""Documentation hygiene: the one Markdown check in the shipped set.

Every relative ``[text](target)`` link in a Markdown file must resolve
on disk, and its ``#anchor``, if any, must name a heading of the target
file (a bare ``#anchor`` names one of its own file).  External links
(``http(s)://``, ``mailto:``) are skipped.
"""

import re

from repro.analysis.engine import Check, register

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
_HEADING = re.compile(r"#{1,6}\s+(.*?)\s*$")


def _heading_anchors(lines):
    """GitHub's slug of every heading outside fenced code: lowercase,
    keep letters, digits, ``_``, ``-`` and space, spaces become ``-``."""
    anchors, fenced = set(), False
    for line in lines:
        fenced ^= line.startswith("```")
        match = not fenced and _HEADING.match(line)
        if match:
            text = re.sub(r"[^\w\- ]", "", match.group(1).lower())
            anchors.add(text.replace(" ", "-"))
    return anchors


@register
class DocsLinks(Check):
    """Relative Markdown links must point at existing files and
    headings: docs are part of the observability/ops contract, and a
    broken cross-link is a dead runbook step."""

    name = "docs-links"
    description = "broken relative link or anchor in a Markdown file"
    kind = "markdown"

    def check(self, source):
        for lineno, line in enumerate(source.lines, 1):
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(_EXTERNAL):
                    continue
                relative, _, anchor = target.partition("#")
                path = source.path.parent / relative if relative \
                    else source.path
                if not path.exists():
                    problem = "broken link"
                elif anchor and path.suffix == ".md" and anchor not in \
                        _heading_anchors(path.read_text().splitlines()):
                    problem = "broken anchor"
                else:
                    continue
                yield self.finding(
                    source, lineno, match.start(1) + 1,
                    f"{problem} -> {target}", data={"target": target})
