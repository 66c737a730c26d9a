#!/usr/bin/env python3
"""Golden tests for tools/helix_lint.py.

Each check id has a violating and a clean fixture under
tests/data/lint/. Violating fixtures carry marker comments naming the
exact finding the linter must emit:

    bad_line();  // LINT-EXPECT: <check-id>       (finding on this line)
    // LINT-EXPECT-NEXT: <check-id>               (finding on the next)

The driver runs the linter per check (``--checks <id>``) and asserts:

  * the violating fixture exits 1 with exactly the marked
    (line, check-id) findings — no more, no fewer;
  * the clean fixture exits 0 with no findings;
  * a justified allow() suppresses its finding (suppression_clean);
  * a justification-free or unknown-check allow() is itself a finding
    (suppression_violation);
  * usage errors (unknown check id, missing file) exit 2.

Registered in CTest as ``helix_lint_fixtures``; the companion
``helix_lint_tree`` test runs the linter over the real tree.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "helix_lint.py"
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "lint"

# (check id, violating fixture, clean fixture)
CASES = [
    ("raw-random", "raw_random_violation.cpp", "raw_random_clean.cpp"),
    ("unordered-iter", "unordered_iter_violation.cpp",
     "unordered_iter_clean.cpp"),
    ("hot-path-std-function", "hot_path_std_function_violation.h",
     "hot_path_std_function_clean.h"),
    ("parse-error-threading", "parse_error_threading_violation.h",
     "parse_error_threading_clean.h"),
    ("float-eq", "float_eq_violation.cpp", "float_eq_clean.cpp"),
    ("param-registry", "param_registry_violation.cpp",
     "param_registry_clean.cpp"),
    ("self-include-first", "self_include_first_violation.cpp",
     "self_include_first_clean.cpp"),
    ("unused-include", "unused_include_violation.cpp",
     "unused_include_clean.cpp"),
    ("pair-matrix", "pair_matrix_violation.cpp", "pair_matrix_clean.cpp"),
    ("suppression", "suppression_violation.cpp", "suppression_clean.cpp"),
]

EXPECT_RE = re.compile(r"LINT-EXPECT:\s*([\w-]+)")
EXPECT_NEXT_RE = re.compile(r"LINT-EXPECT-NEXT:\s*([\w-]+)")
FINDING_RE = re.compile(r"^(.+?):(\d+): \[([\w-]+)\] (.*)$")

failures = []


def fail(message):
    failures.append(message)
    print(f"FAIL: {message}")


def ok(message):
    print(f"ok: {message}")


def expected_findings(path: Path):
    expected = set()
    for lineno, line in enumerate(path.read_text().split("\n"), start=1):
        m = EXPECT_RE.search(line)
        if m:
            expected.add((lineno, m.group(1)))
        m = EXPECT_NEXT_RE.search(line)
        if m:
            expected.add((lineno + 1, m.group(1)))
    return expected


def run_linter(args):
    proc = subprocess.run(
        [sys.executable, str(LINTER)] + args,
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((int(m.group(2)), m.group(3)))
    return proc.returncode, findings


def main():
    for check_id, violating, clean in CASES:
        vio_path = FIXTURE_DIR / violating
        expected = expected_findings(vio_path)
        if not expected:
            fail(f"{violating}: no LINT-EXPECT markers")
            continue
        code, findings = run_linter(
            ["--checks", check_id, str(vio_path)])
        if code != 1:
            fail(f"{violating}: expected exit 1, got {code}")
        if findings != expected:
            fail(f"{violating}: findings {sorted(findings)} != "
                 f"expected {sorted(expected)}")
        else:
            ok(f"{violating}: exact findings, exit 1")

        clean_path = FIXTURE_DIR / clean
        code, findings = run_linter(
            ["--checks", check_id, str(clean_path)])
        if code != 0 or findings:
            fail(f"{clean}: expected clean exit 0, got exit {code} "
                 f"with {sorted(findings)}")
        else:
            ok(f"{clean}: clean, exit 0")

    # A justified allow() must suppress the float-eq finding it covers
    # (the clean fixture contains an exact double comparison).
    code, findings = run_linter(
        ["--checks", "float-eq", str(FIXTURE_DIR / "suppression_clean.cpp")])
    if code != 0 or findings:
        fail("suppression_clean.cpp: justified allow() did not "
             f"suppress (exit {code}, findings {sorted(findings)})")
    else:
        ok("suppression_clean.cpp: justified allow() suppresses")

    # A justification-free allow() must NOT suppress: the malformed
    # directive is reported and any finding it sat above survives.
    code, findings = run_linter(
        ["--checks", "suppression",
         str(FIXTURE_DIR / "suppression_violation.cpp")])
    if code != 1:
        fail("suppression_violation.cpp: expected exit 1, got "
             f"{code}")

    # Usage errors exit 2.
    code, _ = run_linter(["--checks", "no-such-check",
                          str(FIXTURE_DIR / "float_eq_clean.cpp")])
    if code != 2:
        fail(f"unknown check id: expected exit 2, got {code}")
    else:
        ok("unknown check id exits 2")
    code, _ = run_linter([str(FIXTURE_DIR / "does_not_exist.cpp")])
    if code != 2:
        fail(f"missing file: expected exit 2, got {code}")
    else:
        ok("missing file exits 2")

    # --list-checks names every check the cases cover.
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--list-checks"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    listed = {line.split(":", 1)[0] for line in proc.stdout.splitlines()}
    missing = {c for c, _, _ in CASES} - listed
    if proc.returncode != 0 or missing:
        fail(f"--list-checks: exit {proc.returncode}, missing {missing}")
    else:
        ok("--list-checks covers every fixture check")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall helix-lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
