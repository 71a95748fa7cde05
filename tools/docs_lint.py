#!/usr/bin/env python3
"""Docs lint for README.md and docs/*.md.

Four checks. The first three are over markdown inline links
([text](target)):

1. Broken relative links: a target that is not an external URL must
   resolve (relative to the linking file) to an existing path.
2. Dangling anchors: a target with a #fragment (pure `#frag` or
   `file.md#frag`) must name a heading that exists in the target file.
   Anchors are derived GitHub-style: lowercase, punctuation stripped,
   spaces to hyphens, duplicates suffixed -1, -2, ...
3. Reachability: every docs/*.md file must be reachable from README.md
   by following relative markdown links (transitively). An orphaned doc
   is a doc nobody can find.
4. Stale build switches: every IJVM_* name the docs mention (a macro,
   a -D switch) must still appear under src/, tests/, bench/ or in
   CMakeLists.txt, so a retired compile-time switch cannot linger in
   the docs. A name ending in "_" (as in IJVM_DISABLE_*) is a prefix.

Exits non-zero listing every violation.
"""
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
IJVM_NAME_RE = re.compile(r"IJVM_[A-Z0-9_]+")
CODE_ROOTS = ("src", "tests", "bench")


def github_anchor(text: str) -> str:
    """GitHub-style heading slug: strip markup, lowercase, drop
    punctuation, hyphenate spaces."""
    # Strip inline code/emphasis markers and links ([text](url) -> text).
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.replace("`", "").replace("*", "").replace("_", " ")
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md: Path, cache: dict) -> set:
    if md in cache:
        return cache[md]
    counts: dict = {}
    anchors = set()
    in_code = False
    for line in md.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        base = github_anchor(m.group(2))
        n = counts.get(base, 0)
        counts[base] = n + 1
        anchors.add(base if n == 0 else f"{base}-{n}")
    cache[md] = anchors
    return anchors


def code_ijvm_names(repo_root: Path) -> set:
    """Every IJVM_* identifier the build, sources, tests and benches use."""
    paths = [repo_root / "CMakeLists.txt"]
    for top in CODE_ROOTS:
        paths.extend(p for p in (repo_root / top).rglob("*") if p.is_file())
    names = set()
    for p in paths:
        if p.exists():
            names.update(IJVM_NAME_RE.findall(p.read_text(errors="replace")))
    return names


def stale_switches(repo_root: Path, files: list) -> list:
    known = code_ijvm_names(repo_root)
    problems = []
    for md in files:
        if not md.exists():
            continue
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for name in IJVM_NAME_RE.findall(line):
                if name in known or (
                    name.endswith("_") and any(k.startswith(name) for k in known)
                ):
                    continue
                problems.append(
                    f"{md.relative_to(repo_root)}:{lineno}: {name} does not "
                    f"appear in src/, tests/, bench/ or CMakeLists.txt"
                )
    return problems


def lint(repo_root: Path) -> int:
    readme = repo_root / "README.md"
    docs = sorted((repo_root / "docs").glob("*.md"))
    files = [readme] + docs
    problems = []
    checked = 0
    anchor_cache: dict = {}
    # file -> set of md files it links to (for the reachability pass)
    md_links: dict = {f: set() for f in files}

    for md in files:
        if not md.exists():
            continue
        in_code = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(EXTERNAL):
                    continue
                checked += 1
                path_part, _, frag = target.partition("#")
                if path_part:
                    resolved = (md.parent / path_part).resolve()
                    if not resolved.exists():
                        problems.append(
                            f"{md.relative_to(repo_root)}:{lineno}: broken "
                            f"link -> {target}"
                        )
                        continue
                    if resolved.suffix == ".md":
                        md_links[md].add(resolved)
                else:
                    resolved = md.resolve()
                if frag and resolved.suffix == ".md":
                    if frag not in anchors_of(resolved, anchor_cache):
                        problems.append(
                            f"{md.relative_to(repo_root)}:{lineno}: dangling "
                            f"anchor -> {target}"
                        )

    # Reachability: BFS over markdown links from README.
    reachable = set()
    frontier = [readme.resolve()]
    by_resolved = {f.resolve(): f for f in files if f.exists()}
    while frontier:
        cur = frontier.pop()
        if cur in reachable:
            continue
        reachable.add(cur)
        src = by_resolved.get(cur)
        if src is not None:
            frontier.extend(md_links.get(src, ()))
    for doc in docs:
        if doc.resolve() not in reachable:
            problems.append(
                f"{doc.relative_to(repo_root)}: not reachable from README.md "
                f"via markdown links (orphaned doc)"
            )

    problems.extend(stale_switches(repo_root, files))

    for p in problems:
        print(p, file=sys.stderr)
    print(
        f"docs-lint: {checked} relative links checked, "
        f"{len(docs)} docs files, {len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    sys.exit(lint(root.resolve()))
