"""Core of the ``repro analyze`` static invariant checker.

The engine grew a number of hand-maintained parallel registries —
statistics field lists, protocol dispatch tables, kernel tiers — whose
drift is invisible to the test suite until something silently drops a
counter or strands a frame type.  This package machine-checks those
invariants from the AST: a :class:`Project` snapshots the source tree,
registered :class:`Rule` subclasses emit :class:`Finding` objects, and
per-line ``# repro: allow[rule-id]`` comments suppress accepted
exceptions at the offending site.

Only the standard library is used (``ast`` + ``re``), so the analyzer
runs anywhere the package imports — no third-party lint toolchain is
required for the repo-specific invariants.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ANALYZER_VERSION",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "get_rule",
    "register",
    "run_analysis",
]

#: Bumped when rules are added/changed so perf recordings and reports
#: can note which invariant battery a tree passed.
ANALYZER_VERSION = "1.1"

#: ``# repro: allow[rule-id]`` (comma-separated ids allowed).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\-* ]+)\]")

#: Directories never analyzed (build artefacts, caches).
_SKIP_DIRS = {"__pycache__", "_build", ".git", ".mypy_cache", ".ruff_cache"}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


class SourceFile:
    """One Python file: lazily read text, lazily parsed AST."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        #: Path relative to the analysis root, POSIX-style — the key
        #: project-scope rules match against (``engine/job.py``).
        self.rel = path.relative_to(root).as_posix()
        try:
            self.display = os.path.relpath(path)
        except ValueError:  # different drive (Windows)
            self.display = str(path)
        self._text: str | None = None
        self._lines: list[str] | None = None
        self._tree: ast.AST | None = None
        self.parse_error: SyntaxError | None = None

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self.path.read_text(encoding="utf-8")
        return self._text

    @property
    def lines(self) -> list[str]:
        if self._lines is None:
            self._lines = self.text.splitlines()
        return self._lines

    @property
    def tree(self) -> ast.AST | None:
        """The parsed module, or None when the file has a syntax error."""
        if self._tree is None and self.parse_error is None:
            try:
                self._tree = ast.parse(self.text, filename=str(self.path))
            except SyntaxError as exc:
                self.parse_error = exc
        return self._tree

    def allowed(self, rule_id: str, line: int) -> bool:
        """True when ``# repro: allow[rule_id]`` covers ``line``.

        The suppression comment may sit on the flagged line itself or
        on the line directly above it (for lines too long to carry a
        trailing comment).
        """
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                match = _SUPPRESS_RE.search(self.lines[lineno - 1])
                if match is not None:
                    allowed = {p.strip() for p in match.group(1).split(",")}
                    if rule_id in allowed or "*" in allowed:
                        return True
        return False

    def finding(self, rule_id: str, line: int, message: str) -> Finding:
        return Finding(self.display, line, rule_id, message)


class Project:
    """A snapshot of one source tree rooted at a directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        self.files: list[SourceFile] = [
            SourceFile(self.root, path)
            for path in sorted(self.root.rglob("*.py"))
            if not _SKIP_DIRS.intersection(path.relative_to(self.root).parts)
        ]
        self._by_rel = {src.rel: src for src in self.files}

    def find(self, rel_suffix: str) -> SourceFile | None:
        """The unique file whose relative path ends with ``rel_suffix``.

        Suffix matching keeps rules working whether the root is the
        ``repro`` package itself, ``src/``, or a fixture tree that
        mirrors the package layout.  Ambiguity returns None — a rule
        must not guess between candidates.
        """
        exact = self._by_rel.get(rel_suffix)
        if exact is not None:
            return exact
        matches = [
            src
            for src in self.files
            if src.rel.endswith("/" + rel_suffix)
        ]
        return matches[0] if len(matches) == 1 else None

    def read_text(self, rel_suffix: str) -> str | None:
        """Raw text of a (possibly non-Python) file by relative suffix."""
        direct = self.root / rel_suffix
        if direct.is_file():
            return direct.read_text(encoding="utf-8")
        matches = [
            path
            for path in sorted(self.root.rglob(Path(rel_suffix).name))
            if path.is_file()
            and path.relative_to(self.root).as_posix().endswith(rel_suffix)
            and not _SKIP_DIRS.intersection(path.relative_to(self.root).parts)
        ]
        if len(matches) == 1:
            return matches[0].read_text(encoding="utf-8")
        return None


class Rule:
    """One named invariant check.

    Subclasses set ``id``/``summary`` and implement either
    :meth:`check_file` (``scope = "file"``: called once per source
    file) or :meth:`check` (``scope = "project"``: called once with
    the whole project, for cross-file registry invariants).
    """

    id: str = ""
    summary: str = ""
    scope: str = "project"  # "project" | "file"

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id (imports the rule battery)."""
    from repro.analysis import rules as _rules  # noqa: F401

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    from repro.analysis import rules as _rules  # noqa: F401

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _iter_findings(
    project: Project, rules: Iterable[Rule]
) -> Iterator[Finding]:
    for src in project.files:
        if src.tree is None and src.parse_error is not None:
            yield src.finding(
                "parse-error",
                src.parse_error.lineno or 1,
                f"syntax error: {src.parse_error.msg}",
            )
    for rule in rules:
        if rule.scope == "file":
            for src in project.files:
                if src.tree is not None:
                    yield from rule.check_file(src)
        else:
            yield from rule.check(project)


def run_analysis(
    paths: Iterable[str | Path],
    rule_ids: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the rule battery over each root directory in ``paths``.

    Returns the surviving findings (suppressions applied), sorted by
    location.  ``rule_ids`` restricts the battery; the default is every
    registered rule.
    """
    if rule_ids is None:
        rules = all_rules()
    else:
        rules = [get_rule(rule_id) for rule_id in rule_ids]
    surviving: list[Finding] = []
    for raw in paths:
        root = Path(raw)
        if not root.is_dir():
            raise NotADirectoryError(
                f"analysis root is not a directory: {raw}"
            )
        project = Project(root)
        by_display = {src.display: src for src in project.files}
        for finding in _iter_findings(project, rules):
            src = by_display.get(finding.path)
            if src is not None and src.allowed(finding.rule, finding.line):
                continue
            surviving.append(finding)
    return sorted(surviving)
