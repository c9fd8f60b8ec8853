#!/usr/bin/env python3
"""List the src/ functions that no run reached, from gcov coverage data.

Build with coverage (GCC, --coverage; with -O1, add -fno-inline, or the
lines of functions inlined before instrumentation count nowhere), run
the product set (tools/product_runs.sh), then point this script at the
build trees:

    tools/unreached.py BUILD_DIR [BUILD_DIR ...]                  # print
    tools/unreached.py BUILD_DIR ... --write tools/unreached_functions.txt
    tools/unreached.py BUILD_DIR ... --check tools/unreached_functions.txt

It runs `gcov -j -t` on every .gcno under the build trees and unions the
counts: a function is reached when any object file's copy of it ran, or
when any line of its body ran (a function inlined into every caller has
no copy of its own that runs; its lines count in the callers' object
files).
Entries are keyed by source file and demangled name, with no line
numbers, so edits elsewhere in a file do not churn the list. Lambdas and
template instantiations are left out for the same reason; their lines
still count in the line summary printed to stderr.

The list file groups entries into sections. A section header is
`[reason] description`; each entry below it is `file  name` (two spaces).
--write regenerates the list, keeping each known entry's section and
putting new ones under [unclassified]. Entries under [timing] stay listed
even when a run reaches them, because whether they run depends on thread
timing. --check exits 1 when an unreached function is not listed, and
prints the listed functions that a run now reaches.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

TIMING = "timing"
UNCLASSIFIED = "unclassified"
HEADER = """\
# Functions in src/ that no product run reaches: the runs in
# tools/product_runs.sh, measured by tools/unreached.py. An entry is
# `file  demangled name`; the section it sits in says why it stays. The
# list may only shrink: CI fails when a function not listed here goes
# unreached. Regenerate with `tools/unreached.py BUILD_DIR ... --write`.
"""
SHORT_NAMES = [
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
]


def gcov_records(build_dirs):
    """Yield gcov's JSON document for every object file with notes."""
    notes = sorted(str(p) for d in build_dirs for p in Path(d).rglob("*.gcno"))
    for i in range(0, len(notes), 64):
        out = subprocess.run(["gcov", "-j", "-t", *notes[i:i + 64]],
                             capture_output=True, text=True, check=True)
        for line in out.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def src_path(doc, name):
    """The file's path relative to the repository (None outside src/)."""
    path = Path(name)
    if not path.is_absolute():
        path = Path(doc["current_working_directory"]) / path
    parts = path.resolve().parts
    if "src" not in parts:
        return None
    # The last "src" component: build trees may sit under another src/.
    i = len(parts) - 1 - parts[::-1].index("src")
    return "/".join(parts[i:])


def qualified_name(demangled):
    """The name without its trailing parameter list and qualifiers."""
    end = demangled.rfind(")")
    depth = 0
    for i in range(end, -1, -1):
        if demangled[i] == ")":
            depth += 1
        elif demangled[i] == "(":
            depth -= 1
            if depth == 0:
                return demangled[:i]
    return demangled


def churns(demangled):
    """True for entries keyed on something other than the source text:
    lambdas, template instantiations and compiler-made functions."""
    name = qualified_name(demangled)
    for op in ("operator<<=", "operator<=>", "operator<<", "operator<=",
               "operator<"):
        name = name.replace(op, "operator")
    return ("{lambda" in name or "<" in name or name.startswith("_GLOBAL__")
            or name.startswith("__static_initialization"))


def measure(build_dirs):
    """(unreached functions, dropped unreached count, line totals)."""
    reached = {}  # (file, name) -> bool
    spans = {}    # (file, name) -> {(first line, last line)}
    lines = {}    # (file, line) -> bool
    for doc in gcov_records(build_dirs):
        for f in doc["files"]:
            path = src_path(doc, f["file"])
            if path is None:
                continue
            for fn in f["functions"]:
                name = fn["demangled_name"]
                for long, short in SHORT_NAMES:
                    name = name.replace(long, short)
                key = (path, name)
                reached[key] = reached.get(key, False) or fn["execution_count"] > 0
                spans.setdefault(key, set()).add((fn["start_line"], fn["end_line"]))
            for ln in f["lines"]:
                key = (path, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0
    for (path, name), hit in reached.items():
        if not hit:
            reached[(path, name)] = any(
                lines.get((path, n), False)
                for first, last in spans[(path, name)]
                for n in range(first, last + 1))
    unreached = sorted(k for k, hit in reached.items() if not hit)
    kept = [k for k in unreached if not churns(k[1])]
    missed = sum(1 for hit in lines.values() if not hit)
    return kept, len(unreached) - len(kept), (missed, len(lines))


def read_list(path):
    """{(file, name): section} and the section header lines, in order."""
    entries, headers, section = {}, {}, UNCLASSIFIED
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line[1:line.index("]")]
            headers[section] = line
            continue
        file, name = line.split("  ", 1)
        entries[(file, name)] = section
    return entries, headers


def render(entries, headers):
    sections = list(headers)
    if UNCLASSIFIED not in headers and UNCLASSIFIED in entries.values():
        sections.append(UNCLASSIFIED)
        headers = {**headers, UNCLASSIFIED: f"[{UNCLASSIFIED}] Not yet triaged."}
    out = [HEADER]
    for section in sections:
        out.append(headers[section])
        out.extend(f"{f}  {n}" for (f, n), s in sorted(entries.items())
                   if s == section)
        out.append("")
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dirs", nargs="+", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", type=Path, metavar="LIST")
    mode.add_argument("--check", type=Path, metavar="LIST")
    args = parser.parse_args()

    kept, dropped, (missed, total) = measure(args.build_dirs)
    if missed == total:
        sys.exit("unreached: no src/ line ran under " +
                 " ".join(map(str, args.build_dirs)) +
                 "; build with --coverage and run the product set first")
    print(f"unreached: {len(kept)} functions listed ({dropped} lambda or "
          f"template entries left out); {missed} of {total} executable "
          f"src/ lines never ran", file=sys.stderr)

    list_path = args.write or args.check
    listed, headers = {}, {}
    if list_path and (args.check or list_path.exists()):
        listed, headers = read_list(list_path)
    if args.check:
        unreached = set(kept)
        new = [k for k in kept if k not in listed]
        gone = sorted(k for k, s in listed.items()
                      if s != TIMING and k not in unreached)
        for f, n in gone:
            print(f"reached now, drop from the list: {f}  {n}")
        for f, n in new:
            print(f"unreached and not listed: {f}  {n}")
        return 1 if new else 0

    entries = {k: listed.get(k, UNCLASSIFIED) for k in kept}
    entries.update({k: s for k, s in listed.items() if s == TIMING})
    text = render(entries, headers)
    if args.write:
        args.write.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
