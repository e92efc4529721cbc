"""The analysis engine: one check registry, one walk, one report.

Every contract is a :class:`Check` registered here.  A check reads
one file at a time (``kind`` ``"python"`` or ``"markdown"``: it sees one
:class:`~repro.analysis.source.SourceFile`) and is scoped by
engine-root-relative ``include``/``exclude`` path prefixes such as
``src/repro/sim/``.

:func:`run` walks the given paths once.  Each discovered file some
check's scope covers is read once and, if Python, parsed once: a syntax
error becomes one ``parse-error`` finding and the file goes to no
check.  One suppression pass then drops every finding silenced by an
inline ``# repro-lint: disable=<check>`` directive, and the rest come
back sorted.

Run the engine from the repo root (or pass ``root=``) so the scope
prefixes line up.
"""

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.source import SourceFile

#: directories never descended into during discovery
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".venv", "venv", ".eggs", ".hypothesis", ".mypy_cache",
             ".ruff_cache"}

#: file suffix -> the check kind that reads it
KINDS = {".py": "python", ".md": "markdown"}

#: engine-level finding for an unparseable Python file
PARSE_ERROR = "parse-error"


class AnalysisUsageError(ValueError):
    """Bad engine input (unknown check name, nonexistent path)."""


@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location.

    ``path`` is relative to the engine root with POSIX separators, so
    findings serialize identically wherever the engine ran.  ``data``
    carries machine-readable fields (the offending name, the broken link
    target) so tooling never parses ``message``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    data: dict = field(default=None, compare=False)

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def location(self):
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self):
        record = {"rule": self.rule, "path": self.path, "line": self.line,
                  "col": self.col, "message": self.message}
        if self.data:
            record["data"] = dict(self.data)
        return record


def under(relpath, prefixes):
    """Whether ``relpath`` is, or lies under, one of ``prefixes``."""
    return any(relpath == p or relpath.startswith(p) for p in prefixes)


_REGISTRY = {}


def register(cls):
    """Class decorator: add a :class:`Check` subclass to the registry."""
    if not cls.name:
        raise ValueError(f"check class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate check name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


class Check:
    """One statically checkable contract.

    Subclasses set the class attributes and implement ``check(source)``,
    which yields the findings for one
    :class:`~repro.analysis.source.SourceFile`.

    A check applies to a file under some ``include`` prefix (or
    anywhere, when ``include`` is empty) and under no ``exclude``
    prefix.
    """

    name = None
    description = ""          # one line, shown by --list and in the JSON
    kind = "python"           # "python" | "markdown"
    include = ()
    exclude = ()

    def applies_to(self, relpath):
        """Whether this check covers the file at ``relpath``."""
        if under(relpath, self.exclude):
            return False
        return not self.include or under(relpath, self.include)

    def check(self, source):
        raise NotImplementedError

    # -- helpers for subclasses --------------------------------------------

    def finding(self, source, line, col, message, data=None):
        """A finding in ``source`` at ``line``/``col``."""
        return Finding(rule=self.name, path=source.relpath, line=line,
                       col=col, message=message, data=data)

    def finding_at(self, source, node, message, data=None):
        """A finding anchored at an AST node (1-based column)."""
        return self.finding(source, node.lineno, node.col_offset + 1,
                            message, data=data)


def resolve_checks(select=None, ignore=None):
    """Fresh instances of the registered checks, sorted by name and
    narrowed by ``select`` / ``ignore``.

    Raises :class:`AnalysisUsageError` on a name that matches no check,
    so a typo'd filter fails loudly instead of checking nothing.
    """
    from repro.analysis import checks  # noqa: F401 (registers the checks)
    for requested in list(select or ()) + list(ignore or ()):
        if requested not in _REGISTRY:
            raise AnalysisUsageError(
                f"unknown check {requested!r}; known checks: "
                f"{', '.join(sorted(_REGISTRY))}")
    return [_REGISTRY[name]() for name in sorted(_REGISTRY)
            if (not select or name in select)
            and name not in (ignore or ())]


# -- discovery ---------------------------------------------------------------


def discover(paths):
    """``(abspath, kind)`` for every ``.py``/``.md`` file under
    ``paths`` (files or directories), sorted for determinism."""
    found = {}
    for raw in paths:
        top = os.path.abspath(raw)
        if os.path.isfile(top):
            candidates = [top]
        elif os.path.isdir(top):
            candidates = _walk(top)
        else:
            raise AnalysisUsageError(f"no such path: {raw}")
        for path in candidates:
            kind = KINDS.get(os.path.splitext(path)[1])
            if kind is not None:
                found[path] = kind
    return sorted(found.items())


def _walk(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS
                       and not d.endswith(".egg-info")]
        for name in filenames:
            yield os.path.join(dirpath, name)


# -- suppressions ------------------------------------------------------------

_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-]+)")


def suppressions(lines):
    """Map ``{lineno: {check, ...}}`` of the checks silenced per line.

    A directive on a code line silences the named checks on that line;
    a directive on a standalone comment line silences them on the next
    line.  ``disable=all`` silences every check.  Anything after the
    list (conventionally ``-- why``) is a free-form justification.
    """
    table = {}
    for lineno, line in enumerate(lines, 1):
        match = _DIRECTIVE.search(line)
        if match is None:
            continue
        names = {name.strip() for name in match.group(1).split(",")
                 if name.strip()}
        # a comment-only line shields the line it precedes
        target = lineno + 1 if line.lstrip().startswith("#") else lineno
        table.setdefault(target, set()).update(names)
    return table


# -- execution ---------------------------------------------------------------


@dataclass
class Result:
    """Outcome of one engine run."""

    root: Path
    findings: list              # sorted, suppressed ones removed
    suppressed: int
    files: dict                 # kind -> files some check read
    checks: list                # the Check instances that ran


def run(paths=None, root=None, select=None, ignore=None):
    """Run the selected checks over ``paths`` (default: the root)."""
    root = Path(root or os.getcwd()).resolve()
    checks = resolve_checks(select=select, ignore=ignore)
    findings, sources, files = [], {}, {}
    for path, kind in discover(paths or [root]):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        active = [c for c in checks
                  if c.kind == kind and c.applies_to(relpath)]
        if not active:
            continue
        source = sources[relpath] = SourceFile(path, relpath)
        files[kind] = files.get(kind, 0) + 1
        if kind == "python":
            try:
                source.tree
            except SyntaxError as exc:
                findings.append(Finding(
                    rule=PARSE_ERROR, path=relpath, line=exc.lineno or 1,
                    col=exc.offset or 1,
                    message=f"syntax error: {exc.msg}"))
                continue
        for check in active:
            findings.extend(check.check(source))
    tables = {path: suppressions(sources[path].lines)
              for path in {f.path for f in findings}}
    kept = [f for f in findings
            if not {f.rule, "all"} & tables[f.path].get(f.line, set())]
    kept.sort(key=Finding.sort_key)
    return Result(root=root, findings=kept,
                  suppressed=len(findings) - len(kept), files=files,
                  checks=checks)
