#!/usr/bin/env python3
"""AST-grounded determinism lint for the somrm sources.

Re-implements the determinism rules of tools/lint_determinism.py on the
clang AST (libclang + compile_commands.json), where regex cannot follow —
through macro expansions, typedef/using aliases, lambda captures, and
operator overloads — and adds no-fast-math, which needs the compile
commands. The bit-identity rules no-std-fma and no-fp-contract also run,
lexically, in the regex version under the same names. Diagnostics carry
exact file:line:col locations (the macro EXPANSION site, so a waiver
comment on the use line works).

Rules (see DESIGN.md section 8.4 for the rule -> contract table):

  no-unordered-iteration   any declaration or expression whose CANONICAL
                           type involves std::unordered_{map,set,multimap,
                           multiset} — canonical types see through
                           typedefs and using-aliases, so `using M =
                           std::unordered_map<...>` does not hide one.
  no-raw-entropy           calls to rand/srand/time (global or std::),
                           std::random_device use, and
                           std::chrono::system_clock::now() — hidden
                           global entropy or wall-clock numeric inputs.
                           steady_clock is allowed: it feeds telemetry
                           timings, never numeric results.
  no-adhoc-fp-reduction    std::accumulate / std::reduce calls OUTSIDE a
                           linalg/ path component whose result type is
                           floating-point. Integer folds are examined and
                           allowed (recorded as a refinement, so
                           cross-validation against the regex lint, which
                           flags every accumulate, stays sound).
  no-shared-capture        a compound assignment (or operator+= call)
                           inside a parallel_for / parallel_for_reduce
                           lambda whose left-hand side is a BARE variable
                           reference declared OUTSIDE the lambda — a
                           captured accumulator is a data race and an
                           order-dependent FP sum. Subscripted stores
                           (out[i] += ...) are the deterministic
                           row-partitioned idiom and are not flagged;
                           std::atomic targets are race-free and recorded
                           as refinements.
  no-std-fma               calls to std::fma/fmaf/fmal or __builtin_fma* —
                           fused multiply-add rounds once where the
                           portable baseline rounds twice, breaking
                           bit-identity with the -ffp-contract=off build.
  no-fp-contract           `#pragma STDC FP_CONTRACT ON/DEFAULT` or
                           `#pragma clang fp contract(fast|on)` — re-enables
                           the contraction the build globally forbids.
  no-fast-math             -ffast-math / -funsafe-math-optimizations /
                           -fassociative-math / -freciprocal-math in a TU's
                           compile command, or `#pragma GCC optimize` /
                           optimize attributes naming fast-math — value
                           reassociation destroys the fixed-order
                           reduction contract.

The pragma/flag rules are lexical by necessity (pragmas and builtins do not
surface as AST cursors); everything else is resolved on the AST.

Waivers use the same syntax as lint_determinism.py: a trailing
`// lint:allow(<rule>)` on the offending line, or a file-scoped
`// lint:allow-file(<rule>)` anywhere in the file.

Results are cached per TU under --cache-dir keyed by the SHA-256 of the TU
bytes, its transitive project-header closure, the extracted compile flags,
this tool's own bytes, and the libclang version — the same scheme as
tools/run_clang_tidy_cached.py. Unlike the tidy cache, stamps store the
TU's findings/refinements as JSON, so dirty TUs are cached too and
--cross-validate works from cache.

Exit codes: 0 clean, 1 findings (or cross-validation failure), 2 usage /
environment error, 77 libclang unavailable (skip; pass --require to turn
that into an error, as CI does).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

TOOL_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOL_DIR))

from lint_determinism import (  # noqa: E402
    ALLOW_FILE_RE, ALLOW_RE, FAST_MATH_FLAGS, FAST_MATH_PRAGMA_RE)
from run_clang_tidy_cached import project_includes  # noqa: E402

RULES = (
    "no-unordered-iteration",
    "no-raw-entropy",
    "no-adhoc-fp-reduction",
    "no-shared-capture",
    "no-std-fma",
    "no-fp-contract",
    "no-fast-math",
)

SKIP_EXIT = 77

UNORDERED_TYPES = ("std::unordered_map<", "std::unordered_set<",
                   "std::unordered_multimap<", "std::unordered_multiset<")
ENTROPY_FUNCS = {"rand", "srand", "time"}
FMA_FUNCS = {"fma", "fmaf", "fmal"}

FP_CONTRACT_ON_RE = re.compile(
    r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+(ON|DEFAULT)\b"
    r"|#\s*pragma\s+clang\s+fp\s+contract\s*\(\s*(fast|on)\s*\)")
BUILTIN_FMA_RE = re.compile(r"\b__builtin_fmaf?l?\s*\(")


def load_cindex():
    """Import clang.cindex and make sure a libclang is actually loadable.
    Returns the module, or None when the environment has no usable
    libclang (the GCC-only container: annotations are no-ops there and
    this lint skips; CI installs clang + python3-clang and runs it)."""
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    candidates = []
    for pattern in ("/usr/lib/llvm-*/lib/libclang*.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang*.so*",
                    "/usr/lib/libclang*.so*",
                    "/usr/local/lib/libclang*.so*"):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for cand in candidates:
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


class Finding:
    def __init__(self, path: str, line: int, col: int, rule: str, msg: str):
        self.path = path  # repo-root-relative, "/"-separated
        self.line = line
        self.col = col
        self.rule = rule
        self.msg = msg

    def key(self):
        return (self.path, self.line, self.col, self.rule)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.msg}"

    def to_json(self):
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "msg": self.msg}

    @staticmethod
    def from_json(d):
        return Finding(d["path"], d["line"], d["col"], d["rule"], d["msg"])


class FileLines:
    """Waiver lookup: lazily loaded source lines + file-scoped waivers."""

    def __init__(self):
        self._lines: dict[str, list[str]] = {}
        self._file_waived: dict[str, set[str]] = {}

    def _load(self, path: str):
        if path in self._lines:
            return
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            text = ""
        lines = text.splitlines()
        self._lines[path] = lines
        waived = set()
        for raw in lines:
            for m in ALLOW_FILE_RE.finditer(raw):
                if m.group(1) in RULES:
                    waived.add(m.group(1))
        self._file_waived[path] = waived

    def line(self, path: str, lineno: int) -> str:
        self._load(path)
        lines = self._lines[path]
        return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""

    def waived(self, path: str, lineno: int, rule: str) -> bool:
        self._load(path)
        if rule in self._file_waived[path]:
            return True
        m = ALLOW_RE.search(self.line(path, lineno))
        return bool(m) and m.group(1) == rule


def extract_args(entry: dict) -> list[str]:
    """Pull the include/define/std flags clang needs to parse the TU out of
    a compile_commands.json entry; compiler-specific codegen flags are
    dropped (GCC's don't all exist in clang, and none affect parsing)."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    directory = Path(entry.get("directory", "."))
    out: list[str] = []
    i = 1  # skip the compiler
    while i < len(argv):
        a = argv[i]
        if a.startswith("-I"):
            inc = a[2:] or (argv[i + 1] if i + 1 < len(argv) else "")
            if not a[2:]:
                i += 1
            p = Path(inc)
            out.append("-I" + str(p if p.is_absolute() else directory / p))
        elif a == "-isystem" and i + 1 < len(argv):
            p = Path(argv[i + 1])
            out += ["-isystem", str(p if p.is_absolute() else directory / p)]
            i += 1
        elif a.startswith("-D") or a.startswith("-std="):
            out.append(a)
        i += 1
    return out


def tu_flags(entry: dict) -> list[str]:
    """The full flag list of the entry (for the no-fast-math flag check)."""
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry.get("command", ""))


def relpath(path: Path, repo: Path) -> str:
    try:
        return path.resolve().relative_to(repo).as_posix()
    except ValueError:
        return path.as_posix()


def is_fp_kind(cindex, ctype) -> bool:
    k = cindex.TypeKind
    return ctype.get_canonical().kind in (k.FLOAT, k.DOUBLE, k.LONGDOUBLE)


def in_std(cursor) -> bool:
    """True when the declaration lives at global scope, in namespace std,
    or in an extern "C" block — the homes of the libc/libstdc++ entropy and
    math functions the rules name."""
    parent = cursor.semantic_parent
    if parent is None:
        return False
    kind = parent.kind.name
    if kind in ("TRANSLATION_UNIT", "LINKAGE_SPEC"):
        return True
    return kind == "NAMESPACE" and parent.spelling in ("std", "")


def unwrap_expr(cindex, cursor):
    """Strip implicit casts / parens: descend single-child UNEXPOSED_EXPR
    and PAREN_EXPR wrappers."""
    kinds = (cindex.CursorKind.UNEXPOSED_EXPR, cindex.CursorKind.PAREN_EXPR)
    while cursor.kind in kinds:
        children = list(cursor.get_children())
        if len(children) != 1:
            break
        cursor = children[0]
    return cursor


class TuLinter:
    """One translation unit's AST walk: findings plus refinements (sites a
    coarser rule would flag that the AST examined and deliberately allowed
    — the records --cross-validate matches regex findings against)."""

    def __init__(self, cindex, repo: Path, lint_root: Path, files: FileLines):
        self.cindex = cindex
        self.repo = repo
        self.lint_root = lint_root.resolve()
        self.files = files
        self.findings: list[Finding] = []
        self.refinements: list[dict] = []
        self._seen: set = set()

    def _in_scope(self, location) -> bool:
        if location.file is None:
            return False
        try:
            Path(location.file.name).resolve().relative_to(self.lint_root)
            return True
        except ValueError:
            return False

    def _emit(self, location, rule: str, msg: str):
        abs_path = str(Path(location.file.name).resolve())
        if self.files.waived(abs_path, location.line, rule):
            return
        f = Finding(relpath(Path(abs_path), self.repo), location.line,
                    location.column, rule, msg)
        if f.key() not in self._seen:
            self._seen.add(f.key())
            self.findings.append(f)

    def _refine(self, location, rule: str, reason: str):
        self.refinements.append({
            "path": relpath(Path(location.file.name), self.repo),
            "line": location.line, "rule": rule, "reason": reason})

    def run(self, tu):
        ck = self.cindex.CursorKind
        for cursor in tu.cursor.walk_preorder():
            if not self._in_scope(cursor.location):
                continue
            if cursor.kind in (ck.VAR_DECL, ck.FIELD_DECL, ck.PARM_DECL,
                              ck.TYPEDEF_DECL, ck.TYPE_ALIAS_DECL):
                self._check_unordered(cursor)
            elif cursor.kind == ck.CALL_EXPR:
                self._check_call(cursor)

    # -- no-unordered-iteration --------------------------------------------

    def _check_unordered(self, cursor):
        canonical = cursor.type.get_canonical().spelling
        if any(t in canonical for t in UNORDERED_TYPES):
            self._emit(cursor.location, "no-unordered-iteration",
                       f"'{cursor.spelling or canonical}' involves a "
                       "std::unordered_* container (canonical type "
                       f"'{canonical}'): hash-table iteration order is "
                       "unspecified; use std::map/std::vector")

    # -- call-expression rules ---------------------------------------------

    def _check_call(self, cursor):
        ref = cursor.referenced
        if ref is None:
            return
        name = ref.spelling
        if name in ENTROPY_FUNCS and in_std(ref):
            self._emit(cursor.location, "no-raw-entropy",
                       f"call to {name}(): hidden global entropy / "
                       "wall-clock input; use a seeded <random> engine")
        elif name == "now" and ref.semantic_parent is not None and \
                ref.semantic_parent.spelling == "system_clock":
            self._emit(cursor.location, "no-raw-entropy",
                       "std::chrono::system_clock::now() is a wall-clock "
                       "read; use steady_clock (timing) or pass times in")
        elif name == "random_device" or (
                ref.semantic_parent is not None
                and ref.semantic_parent.spelling == "random_device"
                and ref.kind.name == "CONSTRUCTOR"):
            self._emit(cursor.location, "no-raw-entropy",
                       "std::random_device draws nondeterministic entropy; "
                       "use a fixed-seed engine")
        elif name in FMA_FUNCS and in_std(ref):
            self._emit(cursor.location, "no-std-fma",
                       f"call to {name}(): fused multiply-add rounds once "
                       "where the portable build rounds twice; bit-identity "
                       "with -ffp-contract=off is lost")
        elif name in ("accumulate", "reduce") and in_std(ref):
            self._check_fp_reduction(cursor, name)
        elif name in ("parallel_for", "parallel_for_reduce"):
            self._check_parallel_body(cursor)

    def _check_fp_reduction(self, cursor, name):
        path = Path(cursor.location.file.name)
        if "linalg" in path.parts:
            return  # the fixed-order kernels themselves live here
        if is_fp_kind(self.cindex, cursor.type):
            self._emit(cursor.location, "no-adhoc-fp-reduction",
                       f"std::{name} over floating-point values outside "
                       "linalg/: association order is unpinned; use the "
                       "fixed-order helpers (sum/dot/parallel_reduce)")
        else:
            self._refine(cursor.location, "no-adhoc-fp-reduction",
                         f"std::{name} examined: non-floating-point result "
                         f"type '{cursor.type.get_canonical().spelling}'")

    # -- no-shared-capture -------------------------------------------------

    def _check_parallel_body(self, call):
        ck = self.cindex.CursorKind
        for arg in call.get_children():
            for node in arg.walk_preorder():
                if node.kind == ck.LAMBDA_EXPR:
                    self._check_lambda(node)
                    break  # nested lambdas handled by the recursive walk

    def _check_lambda(self, lam):
        ck = self.cindex.CursorKind
        local_decls = set()
        for node in lam.walk_preorder():
            if node.kind in (ck.VAR_DECL, ck.PARM_DECL):
                local_decls.add(node.hash)
        compound_ops = ("operator+=", "operator-=", "operator*=",
                        "operator/=")
        for node in lam.walk_preorder():
            if node.kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                # Children are exactly [LHS, RHS].
                candidates = list(node.get_children())[:1]
            elif (node.kind == ck.CALL_EXPR and node.referenced is not None
                  and node.referenced.spelling in compound_ops):
                # Operator-call child order varies (callee ref may come
                # first); the LHS is the first child resolving to a
                # variable reference.
                candidates = list(node.get_children())
            else:
                continue
            for child in candidates:
                lhs = unwrap_expr(self.cindex, child)
                if lhs.kind != ck.DECL_REF_EXPR:
                    continue  # out[i] += ... : row-partitioned store
                target = lhs.referenced
                if target is None or target.kind not in (
                        ck.VAR_DECL, ck.PARM_DECL, ck.FIELD_DECL):
                    continue
                if target.hash in local_decls:
                    break
                canonical = target.type.get_canonical().spelling
                if "atomic<" in canonical:
                    self._refine(node.location, "no-shared-capture",
                                 f"'{target.spelling}' examined: "
                                 "std::atomic target is race-free")
                    break
                self._emit(node.location, "no-shared-capture",
                           f"'{target.spelling}' is written inside a "
                           "parallel_for body but declared outside the "
                           "lambda: a captured accumulator is a data race "
                           "and an order-dependent FP sum; use "
                           "parallel_reduce or a per-chunk local")
                break


def lexical_pass(paths: set[Path], repo: Path, files: FileLines,
                 findings: list[Finding], seen: set):
    """Pragma/builtin rules that have no AST cursors."""
    for path in sorted(paths):
        abs_path = str(path.resolve())
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for lineno, raw in enumerate(text.splitlines(), start=1):
            checks = (
                (FP_CONTRACT_ON_RE, "no-fp-contract",
                 "FP contraction re-enabled by pragma: the build pins "
                 "-ffp-contract=off for bit-identity"),
                (FAST_MATH_PRAGMA_RE, "no-fast-math",
                 "fast-math re-enabled by pragma/attribute: value "
                 "reassociation breaks the fixed-order reductions"),
                (BUILTIN_FMA_RE, "no-std-fma",
                 "__builtin_fma rounds once where the portable build "
                 "rounds twice; bit-identity is lost"),
            )
            for regex, rule, msg in checks:
                m = regex.search(raw)
                if not m:
                    continue
                if files.waived(abs_path, lineno, rule):
                    continue
                f = Finding(relpath(path, repo), lineno, m.start() + 1,
                            rule, msg)
                if f.key() not in seen:
                    seen.add(f.key())
                    findings.append(f)


def flags_pass(tu_path: Path, flags: list[str], repo: Path,
               findings: list[Finding], seen: set):
    for flag in flags:
        if flag in FAST_MATH_FLAGS:
            f = Finding(relpath(tu_path, repo), 1, 1, "no-fast-math",
                        f"TU compiled with {flag}: value reassociation "
                        "breaks the fixed-order reduction contract")
            if f.key() not in seen:
                seen.add(f.key())
                findings.append(f)


def cache_key(tu: Path, src_root: Path, args: list[str],
              libclang_version: str) -> str:
    h = hashlib.sha256()
    h.update(libclang_version.encode())
    h.update(Path(__file__).read_bytes())
    h.update(" ".join(args).encode())
    closure: set[Path] = set()
    project_includes(tu, src_root, closure)
    for dep in sorted(closure):
        h.update(str(dep).encode())
        h.update(dep.read_bytes())
    return h.hexdigest()


def cross_validate(findings: list[Finding], refinements: list[dict],
                   src_root: Path, repo: Path) -> list[str]:
    """Every regex-lint finding must be reproduced by an AST finding at the
    same file:line, or covered by a refinement record explaining why the
    AST deliberately narrowed it. Returns human-readable mismatches."""
    from lint_determinism import lint_file as regex_lint_file

    ast_sites = {(f.path, f.line, f.rule) for f in findings}
    refined_sites = {(r["path"], r["line"], r["rule"]) for r in refinements}
    problems: list[str] = []
    cpp_files = sorted(
        p for p in src_root.rglob("*")
        if p.suffix in {".hpp", ".cpp", ".h", ".cc"} and p.is_file())
    for path in cpp_files:
        for v in regex_lint_file(path, src_root):
            if v.rule == "unknown-rule":
                continue
            site = (Path(str(v.path)).as_posix(), v.lineno, v.rule)
            if site in ast_sites or site in refined_sites:
                continue
            problems.append(
                f"{v.path}:{v.lineno}: [{v.rule}] regex finding not "
                "reproduced by the AST lint and not covered by a "
                "refinement record")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="build dir containing compile_commands.json")
    parser.add_argument("--cache-dir", default=".astlint-cache",
                        help="directory for per-TU result stamps")
    parser.add_argument("--root", default=None,
                        help="restrict findings to this tree "
                             "(default: <repo>/src)")
    parser.add_argument("--src-root", default=None,
                        help="project include root for the header closure "
                             "(default: <repo>/src)")
    parser.add_argument("--require", action="store_true",
                        help="treat a missing libclang as an error "
                             "instead of a skip (CI mode)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write result stamps")
    parser.add_argument("--cross-validate", action="store_true",
                        help="check every lint_determinism.py finding is "
                             "reproduced or refined")
    parser.add_argument("files", nargs="*",
                        help="explicit TUs (default: every database entry "
                             "under --root)")
    args = parser.parse_args(argv)

    lint_root = (Path(args.root).resolve() if args.root
                 else TOOL_DIR.parent / "src")
    src_root = (Path(args.src_root).resolve() if args.src_root
                else TOOL_DIR.parent / "src")
    # Paths in findings are reported relative to the directory CONTAINING
    # the source root ("src/..." for the repo) — the same convention
    # lint_determinism.py uses, which is what lets --cross-validate match
    # the two tools' findings site by site.
    repo = src_root.parent

    cindex = load_cindex()
    if cindex is None:
        msg = ("ast_lint: libclang (python3-clang + libclang.so) not "
               "available in this environment")
        if args.require:
            print(msg, file=sys.stderr)
            return 2
        print(msg + "; skipping (exit 77)")
        return SKIP_EXIT

    db_path = Path(args.build_dir) / "compile_commands.json"
    if not db_path.is_file():
        print(f"ast_lint: {db_path} missing (configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)
        return 2
    database = json.loads(db_path.read_text())
    entries: dict[str, dict] = {}
    for entry in database:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        entries[str(f.resolve())] = entry

    if args.files:
        tus = [Path(f).resolve() for f in args.files]
    else:
        tus = sorted(Path(p) for p in entries
                     if Path(p).is_relative_to(lint_root))
    if not tus:
        print(f"ast_lint: no translation units under {lint_root}",
              file=sys.stderr)
        return 2

    index = cindex.Index.create()
    try:
        libclang_version = cindex.Config().lib.clang_getClangVersion()
        if isinstance(libclang_version, bytes):
            libclang_version = libclang_version.decode()
    except Exception:
        libclang_version = "libclang-unknown"

    cache_dir = Path(args.cache_dir)
    if not args.no_cache:
        cache_dir.mkdir(parents=True, exist_ok=True)

    files = FileLines()
    findings: list[Finding] = []
    refinements: list[dict] = []
    seen: set = set()
    checked = cached = 0
    parse_opts = cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD

    for tu_path in tus:
        entry = entries.get(str(tu_path))
        clang_args = extract_args(entry) if entry else [
            "-std=c++20", f"-I{src_root}"]
        key = cache_key(tu_path, src_root, clang_args, libclang_version)
        stamp = cache_dir / f"{tu_path.stem}-{key[:24]}.json"
        if not args.no_cache and stamp.is_file():
            try:
                payload = json.loads(stamp.read_text())
                cached += 1
                for d in payload["findings"]:
                    f = Finding.from_json(d)
                    if f.key() not in seen:
                        seen.add(f.key())
                        findings.append(f)
                refinements.extend(payload["refinements"])
                continue
            except (json.JSONDecodeError, KeyError):
                pass  # corrupt stamp: fall through and re-lint
        checked += 1
        try:
            tu = index.parse(str(tu_path), args=clang_args,
                             options=parse_opts)
        except cindex.TranslationUnitLoadError as err:
            print(f"ast_lint: cannot parse {tu_path}: {err}",
                  file=sys.stderr)
            return 2
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            print(f"ast_lint: fatal parse errors in {tu_path}:",
                  file=sys.stderr)
            for d in fatal:
                print(f"  {d}", file=sys.stderr)
            return 2

        linter = TuLinter(cindex, repo, lint_root, files)
        linter.run(tu)

        closure: set[Path] = set()
        project_includes(tu_path, src_root, closure)
        in_scope = {p for p in closure
                    if p.resolve().is_relative_to(lint_root)}
        tu_seen: set = set()
        lexical_pass(in_scope, repo, files, linter.findings, tu_seen)
        if entry:
            flags_pass(tu_path, tu_flags(entry), repo, linter.findings,
                       tu_seen)

        for f in linter.findings:
            if f.key() not in seen:
                seen.add(f.key())
                findings.append(f)
        refinements.extend(linter.refinements)
        if not args.no_cache:
            for old in cache_dir.glob(f"{tu_path.stem}-*.json"):
                old.unlink()
            stamp.write_text(json.dumps({
                "tu": str(tu_path), "key": key,
                "findings": [f.to_json() for f in linter.findings],
                "refinements": linter.refinements}) + "\n")

    findings.sort(key=Finding.key)
    for f in findings:
        print(f)

    status = 0
    if findings:
        print(f"ast_lint: {len(findings)} finding(s) across {len(tus)} "
              f"TU(s) ({checked} parsed, {cached} cached)", file=sys.stderr)
        status = 1
    else:
        print(f"ast_lint: OK ({len(tus)} TUs clean; {checked} parsed, "
              f"{cached} cached)")

    if args.cross_validate:
        problems = cross_validate(findings, refinements, src_root, repo)
        if problems:
            print("ast_lint: cross-validation against lint_determinism.py "
                  "FAILED:", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            status = 1
        else:
            print("ast_lint: cross-validation OK (every regex finding "
                  "reproduced or refined)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
