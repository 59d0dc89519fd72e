#!/usr/bin/env python3
"""Counts code lines in C++ sources: the figure simplicity claims quote.

A code line is a line of a `.h` or `.cpp` file that still holds
something other than whitespace once comments are removed, so blank
lines, `//` lines and lines wholly inside `/* */` comments do not
count.  A line with code and a trailing comment counts.  String, char
and raw string literals are skipped over, so a `//` or `/*` inside one
starts no comment.

Usage:
  tools/count_code_lines.py [PATH ...]   # default: src

Prints one `<lines> <path>` row per PATH (a file or a directory,
searched recursively), then `<lines> total` when there are several.
"""

import pathlib
import re
import sys

EXTENSIONS = (".h", ".cpp")
RAW_STRING = re.compile(r'R"([^()\\ ]{0,16})\(')


def code_lines(text):
    """The number of lines of `text` with code outside comments."""
    count = 0
    has_code = False
    in_block = False
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            count += has_code
            has_code = False
            i += 1
        elif in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
            else:
                i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            in_block = True
            i += 2
        elif c == "R" and RAW_STRING.match(text, i):
            m = RAW_STRING.match(text, i)
            close = ")" + m.group(1) + '"'
            end = text.find(close, m.end())
            end = n if end < 0 else end + len(close)
            # Every line the literal spans holds code.
            count += text.count("\n", i, end)
            has_code = True
            i = end
        elif c in "\"'":
            has_code = True
            i += 1
            while i < n and text[i] != c and text[i] != "\n":
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            if not c.isspace():
                has_code = True
            i += 1
    return count + has_code


def count_path(path):
    files = [path] if path.is_file() else sorted(
        p for p in path.rglob("*") if p.suffix in EXTENSIONS)
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv):
    paths = [pathlib.Path(a) for a in argv] or [pathlib.Path("src")]
    total = 0
    for path in paths:
        if not path.exists():
            print(f"count_code_lines: no such path: {path}", file=sys.stderr)
            return 2
        lines = count_path(path)
        total += lines
        print(f"{lines} {path}")
    if len(paths) > 1:
        print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
