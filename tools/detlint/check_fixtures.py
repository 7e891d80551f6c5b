#!/usr/bin/env python3
"""detlint self-test over tests/detlint_fixtures/.

Asserts the linter's contract on a pinned corpus:

  * every bad_<rule>.cpp is flagged EXACTLY ONCE, and the one finding is
    for <rule> (no cross-rule noise, no double counting);
  * clean.cpp produces zero findings;
  * allowed.cpp passes when its inline annotations are honored and fails
    when they are ignored (--no-allowlist) — proving the escape hatch is
    the only thing suppressing it.

Registered as the `detlint_fixture_check` ctest, so a regression in any
rule's matcher fails tier-1 verify without needing GitHub.

Usage: python3 tools/detlint/check_fixtures.py
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
FIXTURES = ROOT / "tests" / "detlint_fixtures"
FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_detlint(files, no_allowlist):
    cmd = [sys.executable, str(HERE / "detlint.py"), "--root", str(ROOT)]
    if no_allowlist:
        cmd.append("--no-allowlist")
    cmd += [str(f) for f in files]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((m.group("path"), int(m.group("line")),
                             m.group("rule")))
    return proc.returncode, findings


def main() -> int:
    failures: list[str] = []

    def check(cond: bool, what: str):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    bad_fixtures = sorted(FIXTURES.glob("bad_*.cpp"))
    check(len(bad_fixtures) == 5,
          f"five bad fixtures present (found {len(bad_fixtures)})")

    for fixture in bad_fixtures:
        rule = fixture.stem[len("bad_"):].replace("_", "-")
        rc, findings = run_detlint([fixture], no_allowlist=True)
        check(rc == 1, f"{fixture.name}: exit 1 (got {rc})")
        check(len(findings) == 1,
              f"{fixture.name}: exactly one finding (got {len(findings)}: "
              f"{findings})")
        if findings:
            check(findings[0][2] == rule,
                  f"{fixture.name}: finding is [{rule}] "
                  f"(got [{findings[0][2]}])")

    clean = FIXTURES / "clean.cpp"
    rc, findings = run_detlint([clean], no_allowlist=True)
    check(rc == 0 and not findings,
          f"clean.cpp: zero findings, exit 0 (got {rc}, {findings})")

    allowed = FIXTURES / "allowed.cpp"
    rc, findings = run_detlint([allowed], no_allowlist=False)
    check(rc == 0 and not findings,
          f"allowed.cpp with annotations honored: passes (got {rc}, "
          f"{findings})")
    rc, findings = run_detlint([allowed], no_allowlist=True)
    check(rc == 1 and len(findings) == 3,
          f"allowed.cpp with --no-allowlist: all three sites flagged "
          f"(got {rc}, {findings})")

    if failures:
        print(f"\ncheck_fixtures: {len(failures)} assertion(s) failed")
        return 1
    print("\ncheck_fixtures: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
