#!/usr/bin/env python3
"""Fixture tests for tools/ast_lint.py.

Each rule gets a pass/fail pair of synthetic translation units, built in a
temp tree with its own compile_commands.json, so the tests prove three
things per rule: it FIRES on the violating idiom, it stays QUIET on the
compliant one, and it honours the lint:allow / lint:allow-file waiver
syntax. Macro-expansion and lambda-capture cases are covered explicitly —
they are exactly what the regex lint cannot see and the reason ast_lint
exists. The fixtures declare their own minimal "std" shims so parsing
needs no system headers (fast, and independent of the libstdc++ install).

Skips with exit 77 when libclang is unavailable (the GCC-only container);
CI installs clang + python3-clang and runs the suite for real.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

TOOL_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOL_DIR))

import ast_lint  # noqa: E402

FINDING_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): \[(?P<rule>[a-z-]+)\]")

# Minimal self-contained declarations standing in for the std entities the
# rules name, so fixture TUs parse with no system include path. The
# file-scoped waiver silences the regex lint's no-raw-entropy hits on the
# rand/srand/time DECLARATIONS below (the AST lint only flags calls), which
# keeps --cross-validate fixtures sound.
FAKE_STD = """\
#pragma once
// lint:allow-file(no-raw-entropy)
namespace std {
typedef unsigned long size_t;
template <class K, class V> struct unordered_map { unsigned long n; };
template <class T> struct unordered_set { unsigned long n; };
template <class K, class V> struct map { unsigned long n; };
template <class It, class T> T accumulate(It first, It last, T init);
template <class It, class T> T reduce(It first, It last, T init);
struct random_device { unsigned operator()(); };
template <class T> struct atomic {
  T v;
  atomic& operator+=(T);
  T fetch_add(T);
};
double fma(double, double, double);
namespace chrono {
struct system_clock { static long now(); };
struct steady_clock { static long now(); };
}  // namespace chrono
}  // namespace std
extern "C" {
int rand();
void srand(unsigned);
long time(long*);
}
template <class F>
void parallel_for(unsigned long total, F f, unsigned long grain) {
  f(0ul, total);
}
"""


class FixtureTree:
    """A temp src/ tree plus a synthetic compile_commands.json."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="astlint_fixture_")
        root = Path(self._tmp.name)
        self.src = root / "src"
        self.src.mkdir()
        self.build = root / "build"
        self.build.mkdir()
        self.cache = root / "cache"
        self._entries: list[dict] = []
        self.add("fake_std.hpp", FAKE_STD)

    def cleanup(self):
        self._tmp.cleanup()

    def add(self, rel: str, text: str, extra_flags: tuple = ()) -> Path:
        path = self.src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if path.suffix == ".cpp":
            self._entries.append({
                "directory": str(self.src),
                "command": " ".join(
                    ["clang++", "-std=c++17", f"-I{self.src}",
                     *extra_flags, "-c", str(path)]),
                "file": str(path),
            })
        return path

    def run(self, *extra: str, cache: bool = False):
        (self.build / "compile_commands.json").write_text(
            json.dumps(self._entries))
        argv = ["--build-dir", str(self.build), "--root", str(self.src),
                "--src-root", str(self.src)]
        argv += ["--cache-dir", str(self.cache)] if cache else ["--no-cache"]
        argv += list(extra)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = ast_lint.main(argv)
        findings = []
        for line in out.getvalue().splitlines():
            m = FINDING_RE.match(line)
            if m:
                findings.append((m.group("path"), int(m.group("line")),
                                 m.group("rule")))
        return status, findings, out.getvalue() + err.getvalue()


class AstLintFixtureTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def assert_fires(self, findings, rel, line, rule):
        self.assertIn((f"src/{rel}", line, rule), findings)

    def assert_rule_quiet(self, findings, rule):
        self.assertEqual([f for f in findings if f[2] == rule], [])

    # -- no-unordered-iteration -------------------------------------------

    def test_unordered_fires_and_sees_through_aliases(self):
        self.tree.add("unordered_fail.cpp", """\
#include "fake_std.hpp"
std::unordered_map<int, int> direct;
using Hidden = std::unordered_map<int, int>;
Hidden aliased;
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "unordered_fail.cpp", 2,
                          "no-unordered-iteration")
        # The alias use has no "std::unordered_" text on its line — the
        # regex lint is blind to it; the canonical type is not.
        self.assert_fires(findings, "unordered_fail.cpp", 4,
                          "no-unordered-iteration")

    def test_unordered_pass_and_waivers(self):
        self.tree.add("unordered_pass.cpp", """\
#include "fake_std.hpp"
std::map<int, int> ordered;
std::unordered_map<int, int> waived;  // lint:allow(no-unordered-iteration)
""")
        self.tree.add("unordered_filewaived.cpp", """\
#include "fake_std.hpp"
// lint:allow-file(no-unordered-iteration)
std::unordered_map<int, int> a;
std::unordered_map<int, int> b;
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0)
        self.assert_rule_quiet(findings, "no-unordered-iteration")

    # -- no-raw-entropy ----------------------------------------------------

    def test_entropy_fires_on_calls_not_decls(self):
        self.tree.add("entropy_fail.cpp", """\
#include "fake_std.hpp"
int draw() { return rand(); }
long stamp() { return time(nullptr); }
long wall() { return std::chrono::system_clock::now(); }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "entropy_fail.cpp", 2, "no-raw-entropy")
        self.assert_fires(findings, "entropy_fail.cpp", 3, "no-raw-entropy")
        self.assert_fires(findings, "entropy_fail.cpp", 4, "no-raw-entropy")

    def test_entropy_pass_steady_clock_and_waiver(self):
        self.tree.add("entropy_pass.cpp", """\
#include "fake_std.hpp"
long tick() { return std::chrono::steady_clock::now(); }
int seeded() { return rand(); }  // lint:allow(no-raw-entropy)
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0)
        self.assert_rule_quiet(findings, "no-raw-entropy")

    def test_entropy_fires_through_macro_expansion(self):
        # The call is hidden behind a macro defined in a header: the regex
        # lint sees only the innocuous use line; the AST reports the
        # expansion site, where a waiver comment would also be honoured.
        self.tree.add("hidden.hpp", """\
#pragma once
#include "fake_std.hpp"
#define FRESH_VALUE() (rand() + 1)
""")
        self.tree.add("macro_fail.cpp", """\
#include "hidden.hpp"
int value() { return FRESH_VALUE(); }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "macro_fail.cpp", 2, "no-raw-entropy")

    # -- no-adhoc-fp-reduction --------------------------------------------

    def test_fp_reduction_fires_outside_linalg(self):
        self.tree.add("reduce_fail.cpp", """\
#include "fake_std.hpp"
double total(const double* p) { return std::accumulate(p, p + 3, 0.0); }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "reduce_fail.cpp", 2,
                          "no-adhoc-fp-reduction")

    def test_fp_reduction_allows_integers_and_linalg(self):
        self.tree.add("reduce_int.cpp", """\
#include "fake_std.hpp"
int count(const int* p) { return std::accumulate(p, p + 3, 0); }
""")
        self.tree.add("linalg/reduce_kernel.cpp", """\
#include "fake_std.hpp"
double sum(const double* p) { return std::accumulate(p, p + 3, 0.0); }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0)
        self.assert_rule_quiet(findings, "no-adhoc-fp-reduction")

    # -- no-shared-capture -------------------------------------------------

    def test_shared_capture_fires_on_captured_accumulator(self):
        self.tree.add("capture_fail.cpp", """\
#include "fake_std.hpp"
double run() {
  double acc = 0.0;
  parallel_for(8ul, [&](unsigned long b, unsigned long e) {
    acc += static_cast<double>(e - b);
  }, 1ul);
  return acc;
}
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "capture_fail.cpp", 5,
                          "no-shared-capture")

    def test_shared_capture_allows_locals_subscripts_atomics(self):
        self.tree.add("capture_pass.cpp", """\
#include "fake_std.hpp"
void run(double* out) {
  std::atomic<double> safe{};
  parallel_for(8ul, [&](unsigned long b, unsigned long e) {
    double local = 0.0;
    local += 1.0;
    for (unsigned long i = b; i < e; ++i) out[i] += local;
    safe += local;
  }, 1ul);
}
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0, findings)
        self.assert_rule_quiet(findings, "no-shared-capture")

    def test_shared_capture_waiver(self):
        self.tree.add("capture_waived.cpp", """\
#include "fake_std.hpp"
double run() {
  double acc = 0.0;
  parallel_for(1ul, [&](unsigned long b, unsigned long e) {
    acc += static_cast<double>(e - b);  // lint:allow(no-shared-capture)
  }, 1ul);
  return acc;
}
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0, findings)

    # -- no-std-fma --------------------------------------------------------

    def test_fma_fires_on_std_and_builtin(self):
        self.tree.add("fma_fail.cpp", """\
#include "fake_std.hpp"
double f(double a, double b, double c) { return std::fma(a, b, c); }
double g(double a, double b, double c) { return __builtin_fma(a, b, c); }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "fma_fail.cpp", 2, "no-std-fma")
        self.assert_fires(findings, "fma_fail.cpp", 3, "no-std-fma")

    def test_fma_waiver(self):
        self.tree.add("fma_waived.cpp", """\
#include "fake_std.hpp"
double f(double a, double b, double c) {
  return std::fma(a, b, c);  // lint:allow(no-std-fma)
}
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 0, findings)

    # -- no-fp-contract ----------------------------------------------------

    def test_fp_contract_pragma(self):
        self.tree.add("contract_fail.cpp", """\
#include "fake_std.hpp"
#pragma STDC FP_CONTRACT ON
double f(double a, double b, double c) { return a * b + c; }
""")
        self.tree.add("contract_pass.cpp", """\
#include "fake_std.hpp"
#pragma STDC FP_CONTRACT OFF
double g(double a, double b, double c) { return a * b + c; }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "contract_fail.cpp", 2, "no-fp-contract")
        self.assertNotIn(("src/contract_pass.cpp", 2, "no-fp-contract"),
                         findings)

    # -- no-fast-math ------------------------------------------------------

    def test_fast_math_flag_and_pragma(self):
        self.tree.add("fastmath_flag.cpp", """\
#include "fake_std.hpp"
double f(double a, double b) { return a + b; }
""", extra_flags=("-ffast-math",))
        self.tree.add("fastmath_pragma.cpp", """\
#include "fake_std.hpp"
#pragma GCC optimize("fast-math")
double g(double a, double b) { return a + b; }
""")
        status, findings, _ = self.tree.run()
        self.assertEqual(status, 1)
        self.assert_fires(findings, "fastmath_flag.cpp", 1, "no-fast-math")
        self.assert_fires(findings, "fastmath_pragma.cpp", 2, "no-fast-math")

    # -- cache -------------------------------------------------------------

    def test_cache_replays_findings(self):
        self.tree.add("cached_fail.cpp", """\
#include "fake_std.hpp"
std::unordered_map<int, int> m;
""")
        status1, findings1, _ = self.tree.run(cache=True)
        status2, findings2, out2 = self.tree.run(cache=True)
        self.assertEqual(status1, 1)
        self.assertEqual(status2, 1)
        self.assertEqual(findings1, findings2)
        self.assertIn("1 cached", out2)

    # -- cross-validation --------------------------------------------------

    def test_cross_validation_matches_regex_findings(self):
        # Every regex-visible violation must be reproduced at the same
        # site (the lexical bit-identity rules included, under the same
        # rule names), and the integer-accumulate the regex flags (but the
        # AST examines and allows) must be covered by a refinement record.
        self.tree.add("xval.cpp", """\
#include "fake_std.hpp"
std::unordered_map<int, int> m;
int draw() { return rand(); }
int count(const int* p) { return std::accumulate(p, p + 3, 0); }
double fused(double a, double b, double c) { return std::fma(a, b, c); }
#pragma STDC FP_CONTRACT ON
""")
        status, findings, out = self.tree.run("--cross-validate")
        self.assertEqual(status, 1)  # real findings exist...
        self.assertIn("cross-validation OK", out)  # ...but none unmatched

    def test_cross_validation_clean_tree(self):
        self.tree.add("clean.cpp", """\
#include "fake_std.hpp"
double f(double a, double b) { return a + b; }
""")
        status, findings, out = self.tree.run("--cross-validate")
        self.assertEqual(status, 0, out)
        self.assertIn("cross-validation OK", out)


def main() -> int:
    if ast_lint.load_cindex() is None:
        print("test_ast_lint: libclang (python3-clang + libclang.so) not "
              "available; skipping (exit 77)")
        return ast_lint.SKIP_EXIT
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(
        AstLintFixtureTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
