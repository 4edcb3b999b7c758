#!/usr/bin/env python3
"""Documentation lint: keep docs/ and the public headers honest.

Checks, in order:
  1. the documentation tree exists and is non-trivial
     (docs/architecture.md, docs/spec-reference.md, docs/verilog-frontend.md);
  2. every public header under include/retscan/ opens with a Doxygen-style
     file-level doc comment (`///`) near the top — the v2 surface is
     self-describing;
  3. docs/spec-reference.md documents every spec key the parser accepts
     (extracted from src/api/campaign.cpp), and every `campaign.*` key it
     names is one the parser accepts, so the reference cannot rot either
     way (a removed key cannot linger in the docs);
  4. every `--backend a|b|...` and `--schedule a|b|...` value list in
     README.md and docs/*.md names exactly the values of the matching
     to_string table (Backend in src/api/campaign.cpp, Schedule in
     src/sim/schedule.hpp), and docs/spec-reference.md lists both, so a
     removed value cannot linger in the docs;
  5. every relative markdown link in README.md and docs/*.md resolves to a
     real file.

Usage:  python3 ci/check_docs.py [repo_root]
"""

import pathlib
import re
import sys

REQUIRED_DOCS = {
    "docs/architecture.md": 2000,
    "docs/spec-reference.md": 2000,
    "docs/verilog-frontend.md": 2000,
    "docs/serve.md": 2000,
}

SPEC_KEY_RE = re.compile(r'key == "([a-z0-9_.+]+)"')
DOC_CAMPAIGN_KEY_RE = re.compile(r"`(campaign\.[a-z0-9_.]*[a-z0-9_])")
# CLI flag -> (source file, enum) whose to_string table spells its values.
VALUE_TABLES = {
    "--backend": ("src/api/campaign.cpp", "Backend"),
    "--schedule": ("src/sim/schedule.hpp", "Schedule"),
}
RETURN_VALUE_RE = re.compile(r'return "([a-z0-9-]+)";')
MD_LINK_RE = re.compile(r"\]\(([^)#]+?)(?:#[^)]*)?\)")
DOC_COMMENT_WINDOW = 12  # lines to search for the file-level /// block


def check_docs_exist(root):
    for rel, min_bytes in REQUIRED_DOCS.items():
        path = root / rel
        if not path.is_file():
            yield f"{rel}: missing"
        elif path.stat().st_size < min_bytes:
            yield f"{rel}: suspiciously small ({path.stat().st_size} bytes)"


def check_header_comments(root):
    headers = sorted((root / "include" / "retscan").glob("*.hpp"))
    if not headers:
        yield "include/retscan/: no public headers found"
    for path in headers:
        head = path.read_text().splitlines()[:DOC_COMMENT_WINDOW]
        if not any(line.lstrip().startswith("///") for line in head):
            yield (f"{path.relative_to(root)}: no file-level /// doc comment in the "
                   f"first {DOC_COMMENT_WINDOW} lines")


def check_spec_keys(root):
    source = (root / "src" / "api" / "campaign.cpp").read_text()
    keys = sorted(set(SPEC_KEY_RE.findall(source)))
    if not keys:
        yield "src/api/campaign.cpp: no spec keys found (extractor broken?)"
    reference = (root / "docs" / "spec-reference.md").read_text()
    for key in keys:
        if f"`{key}`" not in reference and key not in reference:
            yield f"docs/spec-reference.md: spec key '{key}' is undocumented"
    for key in sorted(set(DOC_CAMPAIGN_KEY_RE.findall(reference)) - set(keys)):
        yield (f"docs/spec-reference.md: documents '{key}', which the spec "
               f"parser does not accept")


def to_string_values(root, rel, enum):
    """The spellings in `const char* to_string(<enum> ...)`'s switch."""
    source = (root / rel).read_text()
    match = re.search(r"const char\* to_string\(" + enum + r"\b(.*?)return \"\?\";",
                      source, re.S)
    return set(RETURN_VALUE_RE.findall(match.group(1))) if match else set()


def check_value_lists(root):
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for flag, (rel, enum) in VALUE_TABLES.items():
        values = to_string_values(root, rel, enum)
        if not values:
            yield f"{rel}: no to_string({enum}) table found (extractor broken?)"
            continue
        list_re = re.compile(re.escape(flag) + r" ([a-z0-9-]+(?:\|[a-z0-9-]+)+)")
        for page in pages:
            lists = list_re.findall(page.read_text())
            if not lists and page.name == "spec-reference.md":
                yield f"{page.relative_to(root)}: no `{flag} a|b|...` value list"
            for listed in lists:
                named = set(listed.split("|"))
                if named != values:
                    yield (f"{page.relative_to(root)}: `{flag} {listed}` does not match "
                           f"to_string({enum}) in {rel}: {'|'.join(sorted(values))}")


def check_markdown_links(root):
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for page in pages:
        for target in MD_LINK_RE.findall(page.read_text()):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                yield f"{page.relative_to(root)}: broken link '{target}'"


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    problems = []
    for check in (check_docs_exist, check_header_comments, check_spec_keys,
                  check_value_lists, check_markdown_links):
        problems.extend(check(root))
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    headers = len(list((root / "include" / "retscan").glob("*.hpp")))
    print(f"docs lint: {len(REQUIRED_DOCS)} guides present, {headers} public "
          f"headers documented, spec keys and flag values covered, links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
