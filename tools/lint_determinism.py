#!/usr/bin/env python3
"""Determinism lint for the somrm sources.

The moment solver is specified to be bit-reproducible for a fixed thread
count (DESIGN.md section 8). That property is easy to lose through a
handful of innocuous-looking C++ idioms, so this lint rejects them at CI
time instead of waiting for a flaky numerical diff:

  no-unordered-iteration   std::unordered_{map,set} in src/ — hash-table
                           iteration order is unspecified and varies
                           across libstdc++ versions, so any numeric
                           output derived from it is nondeterministic.
  no-raw-entropy           rand(), srand(), std::rand(), or time(...) in
                           src/ — hidden global entropy / wall-clock
                           inputs. Seeded std::mt19937* engines are fine.
  no-adhoc-fp-reduction    std::accumulate / std::reduce over floats
                           outside src/linalg/ — floating-point
                           reductions must go through the fixed-order
                           helpers in linalg (sum/dot/parallel_reduce) so
                           the association order is pinned. Every file
                           under a linalg/ path component is exempt: that
                           is where the fixed-order kernels themselves
                           live (csr.cpp, simd.cpp, vec.cpp, ...), and
                           new linalg storage backends qualify
                           automatically.
  no-shared-capture        `x += ...` inside a parallel_for body where x
                           is not declared in the body — a by-reference
                           captured accumulator is both a data race and
                           an order-dependent FP sum.
  no-std-fma               std::fma/fmaf/fmal(...) or __builtin_fma*(...)
                           — a fused multiply-add rounds once where every
                           lane kernel rounds the product and the sum
                           separately, so bit-identity with the
                           -ffp-contract=off build is lost.
  no-fp-contract           `#pragma STDC FP_CONTRACT ON/DEFAULT` or
                           `#pragma clang fp contract(fast|on)` — re-enables
                           the contraction the build globally forbids.
  no-fast-math             `#pragma GCC optimize` / optimize attributes
                           naming fast-math, and, given
                           --compile-commands, -ffast-math /
                           -funsafe-math-optimizations /
                           -fassociative-math / -freciprocal-math / -Ofast
                           in the compile command of a source under the
                           lint root — value reassociation breaks the
                           fixed-order reductions and the lane kernels'
                           bit identity.

Relationship to tools/ast_lint.py: the first four rules are re-grounded on
the clang AST there (canonical types see through aliases, diagnostics
follow macro expansions, capture analysis resolves the declaration a `+=`
LHS references); the three bit-identity rules are lexical (or read the
compile commands) in both lints, share their patterns and carry the same
names. This regex version is deliberately kept as the
zero-dependency fallback that runs in environments without libclang;
`ast_lint.py --cross-validate` asserts the two agree — every finding here
must be reproduced by an AST finding at the same site or covered by one
of its refinement records (see DESIGN.md section 8.4).

False positives can be waived per line with a trailing
`// lint:allow(<rule-name>)` comment, or for a whole file with a
`// lint:allow-file(<rule-name>)` comment on its own line (conventionally
next to the file header explaining why); both waiver forms must name the
rule they suppress. File-scoped waivers exist for files whose every use of
a pattern is deliberate — e.g. a deterministic hash-free cache keyed by
sorted vectors that still mentions unordered containers in comments-of-code
idioms — where per-line waivers would outnumber the code.

Exit codes: 0 clean, 1 violations found, 2 usage / IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from pathlib import Path

RULES = (
    "no-unordered-iteration",
    "no-raw-entropy",
    "no-adhoc-fp-reduction",
    "no-shared-capture",
    "no-std-fma",
    "no-fp-contract",
    "no-fast-math",
)

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"//\s*lint:allow-file\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
RAW_ENTROPY_RE = re.compile(r"(?<![\w:])(?:std::)?(?:rand|srand|time)\s*\(")
FP_REDUCTION_RE = re.compile(r"\bstd::(?:accumulate|reduce)\s*[<(]")
STD_FMA_RE = re.compile(r"\b(?:std::fma|__builtin_fma)f?l?\s*\(")
# The pragma forms tools/ast_lint.py flags: only those that turn
# contraction ON (an explicit OFF is what the build already does).
FP_CONTRACT_RE = re.compile(
    r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+(?:ON|DEFAULT)\b"
    r"|#\s*pragma\s+clang\s+fp\s+contract\s*\(\s*(?:fast|on)\s*\)")
# Shared with tools/ast_lint.py, which imports both.
FAST_MATH_FLAGS = ("-ffast-math", "-funsafe-math-optimizations",
                   "-fassociative-math", "-freciprocal-math", "-Ofast")
FAST_MATH_PRAGMA_RE = re.compile(
    r"^\s*#\s*pragma\s+GCC\s+optimize.*fast-math"
    r"|__attribute__\s*\(\s*\(\s*optimize\s*\(.*fast-math")
PARALLEL_FOR_RE = re.compile(r"\bparallel_for(?:_reduce)?\s*\(")
COMPOUND_ADD_RE = re.compile(r"(?<![-+<>=!*/&|^%])\b([A-Za-z_]\w*)\s*\+=")
LOCAL_DECL_RE = re.compile(
    r"\b(?:double|float|int|long|std::size_t|size_t|auto)\s+([A-Za-z_]\w*)\s*[={(]"
)


def strip_noise(line: str) -> str:
    """Drop string literals and the trailing // comment so pattern matches
    only fire on code. (Block comments are handled by the caller.)"""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


def strip_comment(line: str) -> str:
    """Drop only the trailing // comment, keeping string literals (the
    fast-math pragma and attribute name their options in strings)."""
    masked = STRING_RE.sub(lambda m: "_" * len(m.group(0)), line)
    m = LINE_COMMENT_RE.search(masked)
    return line[:m.start()] if m else line


class Violation:
    def __init__(self, path: Path, lineno: int, rule: str, message: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return bool(m) and m.group(1) == rule


def find_parallel_bodies(lines: list[str]) -> list[tuple[int, int]]:
    """Return (start, end) 0-based line ranges of parallel_for(...) call
    bodies, matched by brace balance from the call site."""
    bodies = []
    i = 0
    while i < len(lines):
        code = strip_noise(lines[i])
        if PARALLEL_FOR_RE.search(code):
            depth = 0
            seen_brace = False
            j = i
            while j < len(lines):
                for ch in strip_noise(lines[j]):
                    if ch == "{":
                        depth += 1
                        seen_brace = True
                    elif ch == "}":
                        depth -= 1
                if seen_brace and depth <= 0:
                    break
                j += 1
            bodies.append((i, min(j, len(lines) - 1)))
            i = j + 1
        else:
            i += 1
    return bodies


def lint_file(path: Path, src_root: Path) -> list[Violation]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        print(f"lint_determinism: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)

    # Blank out /* ... */ block comments, preserving line structure.
    text = re.sub(
        r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)), text,
        flags=re.S)
    lines = text.splitlines()
    rel = path.relative_to(src_root.parent)
    in_linalg = "linalg" in path.parts

    # File-scoped waivers: every rule named by a lint:allow-file(...) line
    # anywhere in the file is suppressed for the whole file. Unknown rule
    # names are themselves violations — a typo must not silently waive
    # nothing (or everything).
    file_waived: set[str] = set()
    out: list[Violation] = []
    for idx, raw in enumerate(lines, start=1):
        for m in ALLOW_FILE_RE.finditer(raw):
            rule = m.group(1)
            if rule in RULES:
                file_waived.add(rule)
            else:
                out.append(Violation(
                    rel, idx, "unknown-rule",
                    f"lint:allow-file names unknown rule '{rule}'; known "
                    f"rules: {', '.join(RULES)}"))

    line_rules = [
        ("no-unordered-iteration", UNORDERED_RE,
         "std::unordered_* iteration order is unspecified; use "
         "std::map/std::vector or add // lint:allow(no-unordered-iteration)"),
        ("no-raw-entropy", RAW_ENTROPY_RE,
         "rand()/srand()/time() inject hidden global state; use a "
         "seeded <random> engine"),
        ("no-std-fma", STD_FMA_RE,
         "fused multiply-add rounds once where the lane kernels round "
         "twice; bit-identity with -ffp-contract=off is lost"),
        ("no-fp-contract", FP_CONTRACT_RE,
         "FP contraction re-enabled by pragma: the build pins "
         "-ffp-contract=off for bit-identity"),
    ]
    if not in_linalg:
        line_rules.append((
            "no-adhoc-fp-reduction", FP_REDUCTION_RE,
            "floating-point reductions must use the fixed-order helpers "
            "in linalg (sum/dot/parallel_reduce), not std::accumulate/"
            "std::reduce"))
    line_rules = [r for r in line_rules if r[0] not in file_waived]
    check_fast_math = "no-fast-math" not in file_waived
    for idx, raw in enumerate(lines, start=1):
        code = strip_noise(raw)
        for rule, regex, message in line_rules:
            if regex.search(code) and not allowed(raw, rule):
                out.append(Violation(rel, idx, rule, message))
        if (check_fast_math and FAST_MATH_PRAGMA_RE.search(strip_comment(raw))
                and not allowed(raw, "no-fast-math")):
            out.append(Violation(
                rel, idx, "no-fast-math",
                "fast-math re-enabled by pragma/attribute: value "
                "reassociation breaks the fixed-order reductions"))

    for start, end in find_parallel_bodies(lines):
        if "no-shared-capture" in file_waived:
            break
        declared: set[str] = set()
        for idx in range(start, end + 1):
            code = strip_noise(lines[idx])
            declared.update(LOCAL_DECL_RE.findall(code))
            for m in COMPOUND_ADD_RE.finditer(code):
                name = m.group(1)
                if name in declared:
                    continue
                if allowed(lines[idx], "no-shared-capture"):
                    continue
                out.append(Violation(
                    rel, idx + 1, "no-shared-capture",
                    f"'{name} +=' inside a parallel_for body but '{name}' is "
                    "not declared in the body: a captured accumulator is a "
                    "data race and an order-dependent FP sum; use "
                    "parallel_reduce or a per-chunk local"))
    return out


def lint_compile_commands(db_path: Path, src_root: Path) -> list[Violation]:
    """no-fast-math on the flags of every compile_commands.json entry whose
    source lies under @p src_root, reported at line 1 of the source (the
    site tools/ast_lint.py reports the same finding at)."""
    try:
        entries = json.loads(db_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"lint_determinism: cannot read {db_path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    root = src_root.resolve()
    out: list[Violation] = []
    for entry in entries:
        source = Path(entry.get("directory", ".")) / entry["file"]
        try:
            rel = Path(root.name) / source.resolve().relative_to(root)
        except ValueError:
            continue
        flags = (entry["arguments"] if "arguments" in entry
                 else shlex.split(entry.get("command", "")))
        for flag in flags:
            if flag in FAST_MATH_FLAGS:
                out.append(Violation(
                    rel, 1, "no-fast-math",
                    f"compiled with {flag}: value reassociation breaks the "
                    "fixed-order reductions"))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", default=None,
        help="source tree to lint (default: <repo>/src next to this script)")
    parser.add_argument(
        "--compile-commands", type=Path, default=None,
        help="compile_commands.json whose flags no-fast-math checks")
    args = parser.parse_args(argv)

    src_root = Path(args.root) if args.root else (
        Path(__file__).resolve().parent.parent / "src")
    if not src_root.is_dir():
        print(f"lint_determinism: source root {src_root} is not a directory",
              file=sys.stderr)
        return 2

    files = sorted(
        p for p in src_root.rglob("*")
        if p.suffix in {".hpp", ".cpp", ".h", ".cc"} and p.is_file())
    if not files:
        print(f"lint_determinism: no C++ sources under {src_root}",
              file=sys.stderr)
        return 2

    violations: list[Violation] = []
    for path in files:
        violations.extend(lint_file(path, src_root))
    if args.compile_commands is not None:
        violations.extend(lint_compile_commands(args.compile_commands,
                                                src_root))

    for v in violations:
        print(v)
    if violations:
        print(f"lint_determinism: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
