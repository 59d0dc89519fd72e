#!/usr/bin/env python3
"""CI gate keeping docs/cli.md and the markdown tree honest.

Two checks, both dependency-free:

 1. Flag sync: for each binary (qosfarm, qoseval, qosreport, qosc),
    every `[--flag PLACEHOLDER]` entry its `--help` synopsis prints
    must appear, flag and placeholder alike (`--procs N`, `--split`),
    as the first column of a table row in that binary's `## <binary>`
    section of docs/cli.md, and every pair documented there must still
    be in the help — so a flag cannot be added, renamed or removed, nor
    its placeholder changed, without the reference page following.
    `--help`/`--version` are documented once for all four binaries and
    exempt from the per-binary tables.

 2. Link check: every relative markdown link in README.md and
    docs/*.md must resolve to an existing file (external http(s) and
    mailto links are skipped; anchors are stripped).

Usage:
  tools/check_cli_docs.py [BUILD_DIR]     # default: build
"""

import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BINARIES = ("qosfarm", "qoseval", "qosreport", "qosc")
EXEMPT = {"--help", "--version"}
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# A synopsis entry: "[--flag]" or "[--flag PLACEHOLDER]", where the
# placeholder may itself hold one bracketed part ("LO[:HI]", "P@T[+R]").
HELP_ENTRY_RE = re.compile(
    r"\[(--[a-z][a-z0-9-]*)(?: ((?:[^\[\]\s]|\[[^\]]*\])+))?\]")
# A table cell's "`--flag PLACEHOLDER`" (a markdown "\|" is a literal |).
DOC_ENTRY_RE = re.compile(r"^`(--[a-z][a-z0-9-]*)(?: ([^`]+))?`$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def help_pairs(binary):
    """(flag, placeholder or None) entries of the binary's --help."""
    proc = subprocess.run([str(binary), "--help"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} --help exited {proc.returncode}")
    return {(flag, ph or None)
            for flag, ph in HELP_ENTRY_RE.findall(proc.stdout + proc.stderr)
            if flag not in EXEMPT}


def doc_sections(text):
    """Map '## heading' -> section body in docs/cli.md."""
    sections = {}
    name = None
    for line in text.splitlines():
        m = re.match(r"^## (\S+)", line)
        if m:
            name = m.group(1)
            sections[name] = []
        elif name is not None:
            sections[name].append(line)
    return {k: "\n".join(v) for k, v in sections.items()}


def table_pairs(section, name, errors):
    """(flag, placeholder or None) in the first column of the section's
    markdown tables; a first cell that names a flag but is not one
    `--flag PLACEHOLDER` code span is an error."""
    pairs = set()
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        first_cell = re.split(r"(?<!\\)\|", line)[1].strip()
        if not FLAG_RE.search(first_cell):
            continue
        m = DOC_ENTRY_RE.match(first_cell.replace("\\|", "|"))
        if not m:
            errors.append(f"docs/cli.md [{name}]: cannot read flag cell "
                          f"{first_cell!r}")
        elif m.group(1) not in EXEMPT:
            pairs.add((m.group(1), m.group(2)))
    return pairs


def show(pair):
    return pair[0] if pair[1] is None else f"{pair[0]} {pair[1]}"


def check_flag_sync(build_dir, errors):
    cli_md = REPO / "docs" / "cli.md"
    sections = doc_sections(cli_md.read_text())
    for name in BINARIES:
        binary = build_dir / name
        if not binary.exists():
            errors.append(f"{binary}: binary not found (build first)")
            continue
        if name not in sections:
            errors.append(f"docs/cli.md: missing '## {name}' section")
            continue
        in_help = help_pairs(binary)
        in_docs = table_pairs(sections[name], name, errors)
        for pair in sorted(in_help - in_docs, key=show):
            errors.append(
                f"docs/cli.md [{name}]: `{show(pair)}` is in `{name} "
                f"--help` but not in the section's flag tables")
        for pair in sorted(in_docs - in_help, key=show):
            errors.append(
                f"docs/cli.md [{name}]: `{show(pair)}` is documented but "
                f"`{name} --help` does not print it")
        if not errors:
            print(f"ok: {name}: {len(in_help)} flags in sync")


def check_links(errors):
    pages = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    checked = 0
    for page in pages:
        for target in LINK_RE.findall(page.read_text()):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            path = target.split("#", 1)[0]
            if not path:  # same-page anchor
                continue
            resolved = (page.parent / path).resolve()
            checked += 1
            if not resolved.exists():
                rel = page.relative_to(REPO)
                errors.append(f"{rel}: broken link -> {target}")
    print(f"ok: {checked} relative links resolved over {len(pages)} pages")


def main():
    build_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "build")
    if not build_dir.is_absolute():
        build_dir = REPO / build_dir
    errors = []
    check_flag_sync(build_dir, errors)
    check_links(errors)
    if errors:
        print(f"\n{len(errors)} doc-sync error(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print("\ndocs in sync with the binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
