"""Fail on dead relative links in the repository's documentation.

Checks every markdown link/image target in ``docs/**/*.md`` and
``README.md``, every ``*.md`` path named in the Python files under
``src/``, ``benchmarks/``, ``examples/`` and ``tests/`` (docstrings and
comments point readers at docs by their path from the repository
root), and the benchmark pointers in ``examples/quickstart.py``.
External URLs (``http(s)://``, ``mailto:``) are skipped —
this is a *repo-consistency* check, not a crawler — and anchors are
verified against the target file's headings when the target is
markdown, so a renamed section breaks CI just like a renamed file.

Stdlib only, like everything else in the serving stack.

Run: ``python tools/check_docs_links.py`` (exit 1 on any dead link).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# [text](target) and ![alt](target); targets with spaces are not used here
_MD_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
# a markdown path named in Python source: a whole path token ending in
# .md, never the tail of a URL or of a longer name
_MD_MENTION = re.compile(r"(?<![\w./:-])\w[\w./-]*\.md\b")
# benchmark-file mentions inside quickstart comments/docstrings
_BENCH_MENTION = re.compile(r"benchmarks/[\w./-]+\.py")
_PYTHON_DIRS = ("src", "benchmarks", "examples", "tests")
_EXTERNAL = ("http://", "https://", "mailto:")


def _heading_anchors(markdown: Path) -> set[str]:
    """GitHub-style anchors for every heading in a markdown file."""
    anchors = set()
    for line in markdown.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            continue
        title = line.lstrip("#").strip().lower()
        # the GitHub slug rule: drop everything but word chars, spaces
        # and hyphens, then hyphenate the spaces
        slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
        anchors.add(slug)
    return anchors


def _check_target(source: Path, target: str) -> str | None:
    """One link; returns an error message or ``None`` when it resolves."""
    if target.startswith(_EXTERNAL):
        return None
    path_part, _, anchor = target.partition("#")
    if not path_part:  # same-file anchor
        resolved = source
    else:
        resolved = (source.parent / path_part).resolve()
        if not resolved.exists():
            return f"{source.relative_to(ROOT)}: dead link -> {target}"
        if ROOT not in resolved.parents and resolved != ROOT:
            return f"{source.relative_to(ROOT)}: link escapes the repo -> {target}"
    if anchor and resolved.suffix == ".md":
        if anchor.lower() not in _heading_anchors(resolved):
            return (
                f"{source.relative_to(ROOT)}: dead anchor -> {target} "
                f"(no such heading in {resolved.name})"
            )
    return None


def _markdown_sources() -> list[Path]:
    sources = sorted((ROOT / "docs").glob("**/*.md"))
    readme = ROOT / "README.md"
    if readme.exists():
        sources.append(readme)
    return sources


def check() -> list[str]:
    errors = []
    for source in _markdown_sources():
        for match in _MD_LINK.finditer(source.read_text(encoding="utf-8")):
            error = _check_target(source, match.group(1))
            if error:
                errors.append(error)
    # code points readers at docs by path; those pointers must not rot
    for directory in _PYTHON_DIRS:
        for source in sorted((ROOT / directory).glob("**/*.py")):
            for mention in _MD_MENTION.findall(source.read_text(encoding="utf-8")):
                if not (ROOT / mention).is_file():
                    errors.append(
                        f"{source.relative_to(ROOT)}: dead doc pointer -> {mention}"
                    )
    quickstart = ROOT / "examples" / "quickstart.py"
    for mention in _BENCH_MENTION.findall(quickstart.read_text(encoding="utf-8")):
        if not (ROOT / mention).exists():
            errors.append(f"examples/quickstart.py: dead doc pointer -> {mention}")
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} dead link(s)", file=sys.stderr)
        return 1
    print("docs links OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
