#!/usr/bin/env python3
"""Unit tests for lint_determinism.py rule detection and waivers.

Run directly (python3 tools/test_lint_determinism.py) or via ctest (label
`lint`). Uses only the standard library: each test writes a tiny C++ tree
into a temp dir and runs the linter on it as a subprocess, pinning the
exit-code contract the CI job relies on.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LINT = TOOLS / "lint_determinism.py"


def run_lint(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), str(root), *extra],
        capture_output=True, text=True)


class LintDeterminismTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name) / "src"
        self.root.mkdir()
        self.addCleanup(self._tmp.cleanup)

    def write(self, name: str, content: str) -> Path:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        return path

    def test_clean_file_passes(self) -> None:
        self.write("a.cpp", "#include <map>\nstd::map<int, int> m;\n")
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_unordered_map_flagged(self) -> None:
        self.write("a.cpp", "std::unordered_map<int, int> m;\n")
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no-unordered-iteration", proc.stdout)

    def test_per_line_waiver_suppresses_one_line_only(self) -> None:
        self.write("a.cpp", (
            "std::unordered_map<int, int> ok;  "
            "// lint:allow(no-unordered-iteration)\n"
            "std::unordered_map<int, int> bad;\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.stdout.count("[no-unordered-iteration]"), 1)
        self.assertIn("a.cpp:2", proc.stdout)

    def test_file_waiver_suppresses_named_rule_everywhere(self) -> None:
        self.write("a.cpp", (
            "// lint:allow-file(no-unordered-iteration)\n"
            "std::unordered_map<int, int> m1;\n"
            "std::unordered_set<int> m2;\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_file_waiver_does_not_leak_to_other_rules(self) -> None:
        self.write("a.cpp", (
            "// lint:allow-file(no-unordered-iteration)\n"
            "std::unordered_map<int, int> m;\n"
            "int r = rand();\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertNotIn("no-unordered-iteration", proc.stdout)
        self.assertIn("no-raw-entropy", proc.stdout)

    def test_file_waiver_does_not_leak_to_other_files(self) -> None:
        self.write("waived.cpp", (
            "// lint:allow-file(no-raw-entropy)\n"
            "int r = rand();\n"))
        self.write("other.cpp", "int r = rand();\n")
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("other.cpp", proc.stdout)
        self.assertNotIn("waived.cpp", proc.stdout)

    def test_file_waiver_with_unknown_rule_is_a_violation(self) -> None:
        self.write("a.cpp", (
            "// lint:allow-file(no-such-rule)\n"
            "std::map<int, int> m;\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown rule 'no-such-rule'", proc.stdout)

    def test_file_waiver_covers_shared_capture(self) -> None:
        body = (
            "void f() {\n"
            "  double acc = 0.0;\n"
            "  parallel_for(0, n, [&](std::size_t i) {\n"
            "    acc += 1.0;\n"
            "  });\n"
            "}\n")
        self.write("bad.cpp", body)
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no-shared-capture", proc.stdout)

        self.write("bad.cpp", "// lint:allow-file(no-shared-capture)\n" + body)
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_fp_reduction_flagged_outside_linalg_only(self) -> None:
        code = "double s = std::accumulate(v.begin(), v.end(), 0.0);\n"
        self.write("core/a.cpp", code)
        self.write("linalg/b.cpp", code)
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("core/a.cpp", proc.stdout)
        self.assertNotIn("linalg/b.cpp", proc.stdout)

    def test_fp_reduction_permitted_in_linalg_sellcs(self) -> None:
        # Pins that new linalg storage backends (here the SELL-C-σ kernels)
        # are automatically inside the fixed-order-reduction boundary, while
        # the identical code outside linalg/ still violates.
        code = "double s = std::accumulate(v.begin(), v.end(), 0.0);\n"
        self.write("linalg/sellcs.cpp", code)
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

        self.write("core/sellcs.cpp", code)
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("core/sellcs.cpp", proc.stdout)
        self.assertNotIn("linalg/sellcs.cpp", proc.stdout)

    def test_std_fma_and_builtin_fma_flagged(self) -> None:
        self.write("linalg/k.cpp", (
            "double a = std::fma(x, y, z);\n"
            "float b = std::fmaf(x, y, z);\n"
            "double c = __builtin_fma(x, y, z);\n"
            "double d = std::fmax(x, y);\n"
            "double e = x * y + z;  // not std::fma(x, y, z)\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        # linalg/ is not exempt: the lane kernels are what the rule guards.
        self.assertEqual(proc.stdout.count("[no-std-fma]"), 3, proc.stdout)
        for line in (1, 2, 3):
            self.assertIn(f"k.cpp:{line}:", proc.stdout)

    def test_fp_contract_pragmas_flagged_unless_off(self) -> None:
        self.write("a.cpp", (
            "#pragma STDC FP_CONTRACT ON\n"
            "#pragma clang fp contract(fast)\n"
            "#pragma STDC FP_CONTRACT OFF\n"
            "#pragma clang fp contract(off)\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.stdout.count("[no-fp-contract]"), 2, proc.stdout)
        self.assertIn("a.cpp:1:", proc.stdout)
        self.assertIn("a.cpp:2:", proc.stdout)

    def test_bit_identity_rules_take_both_waiver_forms(self) -> None:
        self.write("a.cpp", (
            "double a = std::fma(x, y, z);  // lint:allow(no-std-fma)\n"
            "#pragma STDC FP_CONTRACT ON  // lint:allow(no-std-fma)\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertNotIn("no-std-fma", proc.stdout)
        self.assertIn("a.cpp:2: [no-fp-contract]", proc.stdout)

        self.write("a.cpp", (
            "// lint:allow-file(no-fp-contract)\n"
            "// lint:allow-file(no-std-fma)\n"
            "#pragma STDC FP_CONTRACT ON\n"
            "double c = __builtin_fma(x, y, z);\n"))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_fast_math_pragma_and_attribute_flagged(self) -> None:
        self.write("linalg/k.cpp", (
            '#pragma GCC optimize("fast-math")\n'
            '#pragma GCC optimize ("-ffast-math")\n'
            '__attribute__((optimize("fast-math"))) void f();\n'
            '#pragma GCC optimize("O3")\n'
            '// #pragma GCC optimize("fast-math")\n'
            'const char* s = "#pragma GCC optimize fast-math";\n'))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 1)
        # linalg/ is not exempt, and the options' string literals count.
        self.assertEqual(proc.stdout.count("[no-fast-math]"), 3, proc.stdout)
        for line in (1, 2, 3):
            self.assertIn(f"k.cpp:{line}: [no-fast-math]", proc.stdout)

        self.write("linalg/k.cpp", (
            '#pragma GCC optimize("fast-math")  // lint:allow(no-fast-math)\n'))
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def write_db(self, entries: list[dict]) -> Path:
        db = self.root.parent / "compile_commands.json"
        db.write_text(json.dumps(entries), encoding="utf-8")
        return db

    def test_fast_math_compile_flags_flagged(self) -> None:
        for name in ("a.cpp", "b.cpp", "c.cpp", "d.cpp"):
            self.write(name, "int x;\n")
        outside = self.root.parent / "tests" / "t.cpp"
        outside.parent.mkdir()
        outside.write_text("int y;\n", encoding="utf-8")
        d = str(self.root.parent)
        db = self.write_db([
            {"directory": d, "file": "src/a.cpp",
             "arguments": ["c++", "-O2", "-ffast-math", "-c", "src/a.cpp"]},
            {"directory": d, "file": str(self.root / "b.cpp"),
             "command": "c++ -Ofast -c src/b.cpp"},
            {"directory": d, "file": "src/c.cpp",
             "command": "c++ -O2 -ffp-contract=off -fno-fast-math -c src/c.cpp"},
            {"directory": d, "file": "src/d.cpp",
             "arguments": ["c++", "-fassociative-math", "-freciprocal-math",
                           "-funsafe-math-optimizations", "-c", "src/d.cpp"]},
            {"directory": d, "file": "tests/t.cpp",
             "command": "c++ -ffast-math -c tests/t.cpp"},
        ])
        # Without the database only the sources are read: clean.
        proc = run_lint(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

        proc = run_lint(self.root, "--compile-commands", str(db))
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.stdout.count("[no-fast-math]"), 5, proc.stdout)
        self.assertIn("a.cpp:1: [no-fast-math] compiled with -ffast-math",
                      proc.stdout)
        self.assertIn("b.cpp:1: [no-fast-math] compiled with -Ofast",
                      proc.stdout)
        self.assertEqual(proc.stdout.count("d.cpp:1: [no-fast-math]"), 3)
        self.assertNotIn("c.cpp", proc.stdout)
        self.assertNotIn("t.cpp", proc.stdout)  # outside the lint root

    def test_unreadable_compile_commands_is_a_usage_error(self) -> None:
        self.write("a.cpp", "int x;\n")
        proc = run_lint(self.root, "--compile-commands",
                        str(self.root.parent / "missing.json"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot read", proc.stderr)


if __name__ == "__main__":
    unittest.main()
