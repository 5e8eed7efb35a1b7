#!/usr/bin/env python3
"""Fail on dead relative links and dead #anchors in the repo's markdown.

Scans every tracked *.md file (the repo root and docs/, excluding build
trees) for inline markdown links and images `[text](target)`, and checks:

  targets    — each *relative* target exists on disk.  External links
               (http/https/mailto) and absolute paths are skipped — this
               is a repo-consistency check, not a crawler.
  fragments  — each `#anchor` fragment (in-page `#section` links and
               cross-file `docs/FORMAT.md#header` links into markdown
               files) names a real heading of the target document.
               Anchors are derived GitHub-style: lowercase, punctuation
               stripped, spaces become hyphens, repeated headings get
               -1/-2/... suffixes; fenced code blocks are ignored, so a
               `# comment` inside a transcript is not a heading.
  citations  — each markdown file named in a source file under src/,
               tests/, bench/, scripts/ or examples/ (a comment citing
               `docs/FORMAT.md` or `PAPERS.md`) names a file in the repo:
               a cited path resolves from the repo root or from the citing
               file's directory, and a bare name is the name of some file.

Usage:
  scripts/check_docs_links.py [--root DIR]

Exit status: 0 = all relative links, anchors and citations resolve, 1 = at
least one is dead (each is printed as file:line: target).  Run locally before
committing doc changes; CI runs it as the docs-links job.
"""

import argparse
import os
import re
import sys

# Inline links/images; deliberately simple — no reference-style links are
# used in this repo.  Group 1 is the target inside the parentheses.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^\s*(```|~~~)")

SKIP_PREFIXES = ("http://", "https://", "mailto:")
SKIP_DIRS = {".git", "build", ".ccache", "bench-out"}

# A markdown file cited by name in source code: an upper-case name ending
# in .md, optionally after a relative directory prefix (docs/, ../../docs/).
CITATION_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[A-Z][\w-]*\.md)\b")
CODE_DIRS = ("src", "tests", "bench", "scripts", "examples")


def github_slug(heading):
    """GitHub's anchor id for a heading (before duplicate suffixing)."""
    # Inline links contribute their text, not their target; emphasis and
    # code markers are punctuation and fall to the strip below.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    slug = text.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s", "-", slug)


def document_anchors(path):
    """All anchor ids of a markdown file, fenced code blocks excluded."""
    anchors = set()
    counts = {}
    in_fence = False
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_slug(m.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def iter_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and not d.startswith("build")]
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def iter_markdown_files(root):
    return (path for path in iter_files(root) if path.endswith(".md"))


def check_citations(root):
    """Markdown files cited in source files under CODE_DIRS that name no
    file in the repo.  Markdown files themselves are skipped: their links
    are checked by check_file."""
    names = {os.path.basename(path) for path in iter_files(root)}
    dead = []
    for code_dir in CODE_DIRS:
        for path in iter_files(os.path.join(root, code_dir)):
            if path.endswith(".md"):
                continue
            try:
                with open(path, "r", encoding="utf-8") as f:
                    lines = f.readlines()
            except UnicodeDecodeError:
                continue  # binary fixture
            for lineno, line in enumerate(lines, start=1):
                for match in CITATION_RE.finditer(line):
                    cited = match.group(1)
                    if "/" in cited:
                        found = any(
                            os.path.exists(os.path.join(base, cited))
                            for base in (root, os.path.dirname(path)))
                    else:
                        found = cited in names
                    if not found:
                        rel = os.path.relpath(path, root)
                        dead.append(f"{rel}:{lineno}: {cited} "
                                    "(cites no file in the repo)")
    return dead


def check_file(path, root, anchor_cache):
    def anchors_of(md_path):
        key = os.path.normpath(md_path)
        if key not in anchor_cache:
            anchor_cache[key] = document_anchors(key)
        return anchor_cache[key]

    dead = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(SKIP_PREFIXES):
                    continue
                if os.path.isabs(target):
                    continue
                rel = os.path.relpath(path, root)
                target_path, _, fragment = target.partition("#")
                if target_path:
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), target_path))
                    if not os.path.exists(resolved):
                        dead.append(f"{rel}:{lineno}: {target}")
                        continue
                else:
                    resolved = path  # pure in-page anchor
                if fragment and resolved.endswith(".md"):
                    if fragment not in anchors_of(resolved):
                        dead.append(f"{rel}:{lineno}: {target} "
                                    f"(no such anchor)")
    return dead


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root to scan (default: cwd)")
    args = ap.parse_args()

    dead = []
    files = 0
    anchor_cache = {}
    for path in iter_markdown_files(args.root):
        files += 1
        dead.extend(check_file(path, args.root, anchor_cache))
    dead.extend(check_citations(args.root))

    if dead:
        print(f"{len(dead)} dead relative link(s)/anchor(s)/citation(s):",
              file=sys.stderr)
        for entry in dead:
            print(f"  DEAD {entry}", file=sys.stderr)
        return 1
    print(f"docs links OK: {files} markdown files, all relative links, "
          "anchors and source citations resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
