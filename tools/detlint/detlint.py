#!/usr/bin/env python3
"""detlint — static enforcement of the pmcast determinism & replay contract.

The repo's one load-bearing invariant is that a scenario replayed with the
same master seed is byte-identical — across thread counts, memory layouts,
and index rewrites. Golden-fingerprint tests catch violations after the
fact; detlint catches the *sources* of nondeterminism at lint time, the way
TSan catches data races at run time. docs/DETERMINISM.md is the prose
contract; each rule below cross-references a section there.

Rules
-----
banned-source       Wall-clock, entropy, and environment reads in
                    fingerprint-affecting code: std::random_device, rand,
                    srand, time(), gettimeofday, clock_gettime,
                    system_clock / steady_clock / high_resolution_clock,
                    getenv. Replays must not observe the host.
pointer-hash        Pointer values reaching a hash or comparator:
                    std::hash<T*>, std::less<T*>, an unordered
                    container keyed by a pointer (its implicit
                    std::hash<T*>), reinterpret_cast to [u]intptr_t,
                    `this` passed to a hash/fnv helper.
                    Addresses differ run to run; hashing one bakes ASLR
                    into a fingerprint.
rng-discipline      RNG engine construction outside the labeled-stream
                    seam: any <random> engine anywhere, and direct
                    pmc::Rng / SplitMix64 construction outside src/sim/
                    and src/common/rng* — simulation draws must flow
                    through Runtime::make_stream / make_process_stream so
                    that adding a consumer never perturbs unrelated draws.
iteration-order     Range-for or iterator loops over std::unordered_map /
                    std::unordered_set. Bucket order is
                    implementation-defined; iterating it leaks hash order
                    into summaries, wire bytes, and fan-out order. Use
                    FlatMap or sorted materialization.
thread-confinement  Mutable static / namespace-scope state reachable from
                    worker-pool lanes: TSan only catches these when a
                    schedule happens to race; the replay contract bans
                    them outright.

Escape hatches
--------------
An inline annotation on the finding's line or the line above:

    // detlint:allow(<rule>[,<rule>...]) <justification>

(justification required), or a checked-in allowlist entry
(tools/detlint/detlint.allow):

    <path-glob> <rule> -- <justification>

Analysis
--------
detlint is a self-contained lexical analyzer: it strips comments and
strings, resolves unordered-container declarations across a file and its
same-stem header/source pair, and needs nothing beyond Python.

Usage
-----
    python3 tools/detlint/detlint.py                    # lint the tree
    python3 tools/detlint/detlint.py --list-rules
    python3 tools/detlint/detlint.py path/to/file.cpp   # explicit files
    python3 tools/detlint/detlint.py --no-allowlist f.cpp   # fixtures mode

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULES = (
    "banned-source",
    "pointer-hash",
    "rng-discipline",
    "iteration-order",
    "thread-confinement",
)

# Directories scanned when no explicit files are given, relative to repo root.
DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "tools")
CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h"}

# rng-discipline: pmc::Rng / SplitMix64 may be constructed directly only in
# the stream factory itself and the generator's home.
RNG_EXEMPT_GLOBS = ("src/sim/*", "src/common/rng.*")

ALLOW_RE = re.compile(
    r"//\s*detlint:allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)\s*(.*)"
)


@dataclass
class Finding:
    path: str  # repo-relative, posix
    line: int  # 1-based
    rule: str
    message: str
    allowed_by: str | None = None  # None = live violation


@dataclass
class SourceText:
    """A C++ file with comments/strings blanked and annotations extracted."""

    path: Path
    rel: str
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)  # stripped
    # line (1-based) -> (frozenset of rules, justification)
    allows: dict[int, tuple[frozenset, str]] = field(default_factory=dict)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving line
    structure so findings keep their line numbers. Handles //, /* */,
    "..." with escapes, '...', and R"delim(...)delim" raw strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, i + m.end())
                j = n - len(closer) if j == -1 else j
                chunk = text[i : j + len(closer)]
                out.append('R""' + "".join(
                    ch if ch == "\n" else " " for ch in chunk[3:]))
                i = j + len(closer)
            else:
                out.append(c)
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + " " * (j - i - 1) + '"')
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("'" + " " * (j - i - 1) + "'")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_source(path: Path, root: Path) -> SourceText:
    text = path.read_text(encoding="utf-8", errors="replace")
    src = SourceText(path=path, rel=path.relative_to(root).as_posix())
    src.raw_lines = text.splitlines()
    src.code_lines = strip_comments_and_strings(text).splitlines()
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = frozenset(r.strip() for r in m.group(1).split(","))
            src.allows[lineno] = (rules, m.group(2).strip())
    return src


# --------------------------------------------------------------------------
# Allowlist


@dataclass
class AllowEntry:
    glob: str
    rule: str  # rule id or '*'
    justification: str
    origin: str  # "file:line" for diagnostics


def load_allowlist(path: Path) -> list[AllowEntry]:
    entries = []
    if not path.exists():
        return entries
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, justification = line.partition("--")
        if not sep or not justification.strip():
            raise SystemExit(
                f"{path}:{lineno}: allowlist entry needs a '-- justification'"
            )
        parts = head.split()
        if len(parts) != 2 or (parts[1] not in RULES and parts[1] != "*"):
            raise SystemExit(
                f"{path}:{lineno}: expected '<glob> <rule> -- <why>', "
                f"rule one of {', '.join(RULES)} or '*'"
            )
        entries.append(
            AllowEntry(parts[0], parts[1], justification.strip(),
                       f"{path.name}:{lineno}")
        )
    return entries


def allowlisted(entry_list, rel: str, rule: str):
    for e in entry_list:
        if (e.rule == rule or e.rule == "*") and fnmatch.fnmatch(rel, e.glob):
            return e
    return None


# --------------------------------------------------------------------------
# Lexical analysis


BANNED_SOURCE_PATTERNS = (
    (re.compile(r"\brandom_device\b"), "std::random_device (host entropy)"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand() (ambient C RNG)"),
    (re.compile(r"(?<![\w:.~])time\s*\(\s*(?:nullptr|NULL|0|&\w+)?\s*\)"),
     "time() (wall clock)"),
    (re.compile(r"\bstd::time\b"), "std::time (wall clock)"),
    (re.compile(r"\b(?:system_clock|high_resolution_clock|file_clock)\b"),
     "wall/host clock read"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock (host clock)"),
    (re.compile(r"\b(?:secure_)?getenv\b"), "getenv (environment read)"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get|localtime"
                r"|gmtime)\b"), "wall-clock/calendar read"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock() (CPU clock)"),
)

POINTER_HASH_PATTERNS = (
    (re.compile(r"\bstd::hash\s*<[^<>;]*\*\s*>"),
     "std::hash over a pointer type"),
    (re.compile(r"\bstd::less\s*<[^<>;]*\*\s*>"),
     "std::less over a pointer type (address ordering)"),
    (re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<[^<>,;]*\*\s*[,>]"),
     "unordered container keyed by a pointer (implicit std::hash<T*>)"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer converted to integer (address value escapes)"),
    (re.compile(r"\b\w*(?:hash|fnv)\w*\s*\([^()]*\bthis\b"),
     "`this` passed to a hash function"),
)

STD_ENGINE_RE = re.compile(
    r"\b(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(?:24|48)(?:_base)?|knuth_b)\b"
)
# Rng construction forms. A trailing ( is only a *construction* when the
# parenthesis content is value-like; `Rng stream(std::uint64_t tag)` is a
# declaration of a function returning Rng.
RNG_DECL_RE = re.compile(r"\b(?:pmc::)?(Rng|SplitMix64)\s+(\w+)\s*([({=])")
RNG_TEMP_RE = re.compile(r"\b(?:pmc::)?(Rng|SplitMix64)\s*\(")
STREAM_FACTORY_RE = re.compile(
    r"\b(?:make_stream|make_process_stream|make_rng|stream|split)\s*\("
)
PARAMLIST_TYPE_RE = re.compile(
    r"\b(?:std::|const\b|unsigned\b|uint|int\d|size_t|uint64|Rng\b|double\b"
    r"|float\b|char\b|bool\b|auto\b)|&|\w\s+\w"
)

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<"
)
# Ordered/sequence containers tracked only to *shadow* unordered names:
# `foo(std::unordered_map<..>& counts)` in one function must not taint a
# `foo(std::map<..>& counts)` parameter of the same name elsewhere.
ORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:map|set|multimap|multiset|vector|deque|list"
    r"|array|span|FlatMap)\s*<"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\((?P<head>[^;)]*?):(?P<expr>[^;]*)\)")
ITER_FOR_RE = re.compile(
    r"\bfor\s*\([^;]*=\s*(?P<base>\w+(?:\s*(?:\.|->)\s*\w+)*)\s*"
    r"(?:\.|->)\s*c?begin\s*\("
)

STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?static\s+(?!class\b|struct\b)")
STATIC_IMMUTABLE_RE = re.compile(
    r"^\s*(?:inline\s+)?static\s+(?:(?:inline|constexpr|constinit|const"
    r"|thread_local)\b|(?:std::)?atomic\b|(?:std::)?atomic<)"
)


def balanced_template_end(text: str, start: int) -> int:
    """Index just past the matching '>' for the '<' at text[start]."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            # treat '>>' as two closers (C++11 semantics)
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            break
        i += 1
    return -1


def _collect_decls(code: str, pattern: re.Pattern) -> list[tuple[int, str]]:
    """(char offset, identifier) for declarations matching a container
    pattern: members, locals, and parameters, plus `using X = ...` aliases."""
    decls: list[tuple[int, str]] = []
    for m in pattern.finditer(code):
        end = balanced_template_end(code, m.end() - 1)
        if end == -1:
            continue
        after = code[end:]
        # Declarator terminators cover members/locals (`; = { (`) and
        # parameters (`) ,`).
        dm = re.match(r"\s*[&*]?\s*(\w+)\s*[;={(),]", after)
        if dm and dm.group(1) not in ("const",):
            decls.append((m.start(), dm.group(1)))
        # `using X = unordered_map<...>` alias: record the alias name too
        line_start = code.rfind("\n", 0, m.start()) + 1
        um = re.match(r"\s*using\s+(\w+)\s*=", code[line_start:m.start()])
        if um:
            decls.append((line_start, um.group(1)))
    return decls


def collect_unordered_decls(code: str) -> set[str]:
    """Identifiers declared with an unordered container type (name set,
    used for same-stem sibling headers where positions don't transfer)."""
    return {name for _, name in _collect_decls(code, UNORDERED_DECL_RE)}


class ContainerScope:
    """Nearest-preceding-declaration resolution for container names.

    A base identifier in a loop is treated as unordered iff the closest
    declaration of that name *above* the use site is an unordered container
    (ordered/sequence declarations shadow same-named unordered ones from
    other scopes). With no preceding declaration — class members declared
    below their use, or in the paired header — any unordered declaration of
    the name, local-later or sibling, counts (conservative)."""

    def __init__(self, code: str, sibling_unordered: set[str]):
        self.events: dict[str, list[tuple[int, bool]]] = {}
        for off, name in _collect_decls(code, UNORDERED_DECL_RE):
            self.events.setdefault(name, []).append((off, True))
        for off, name in _collect_decls(code, ORDERED_DECL_RE):
            self.events.setdefault(name, []).append((off, False))
        for evs in self.events.values():
            evs.sort()
        self.sibling_unordered = sibling_unordered

    def is_unordered_at(self, name: str, offset: int) -> bool:
        evs = self.events.get(name, [])
        preceding = [u for off, u in evs if off <= offset]
        if preceding:
            return preceding[-1]
        if any(u for _, u in evs):  # declared below the use site
            return True
        return name in self.sibling_unordered


def range_expr_base(expr: str) -> str | None:
    """First identifier of a range-for expression: `store_`, `eq->second`
    -> `eq`, `*ptr` -> `ptr`, `this->store_` -> `store_`."""
    expr = expr.strip()
    expr = re.sub(r"^[*&(\s]+", "", expr)
    expr = re.sub(r"^this\s*->\s*", "", expr)
    m = re.match(r"(\w+)", expr)
    return m.group(1) if m else None


class BraceTracker:
    """Approximate scope tracking: classifies each '{' as namespace, type,
    or block so the linter can tell namespace-scope variables from locals.
    Heuristic by design."""

    NAMESPACE, TYPE, BLOCK = "namespace", "type", "block"

    def __init__(self):
        self.stack: list[str] = []
        self.pending = ""  # tokens since last ; { or }

    def feed(self, line: str):
        for ch in line:
            if ch == "{":
                self.stack.append(self._classify(self.pending))
                self.pending = ""
            elif ch == "}":
                if self.stack:
                    self.stack.pop()
                self.pending = ""
            elif ch == ";":
                self.pending = ""
            else:
                self.pending += ch

    def _classify(self, pending: str) -> str:
        p = pending.strip()
        if re.search(r"\bnamespace\b", p):
            return self.NAMESPACE
        if re.search(r"\b(class|struct|union|enum)\b", p) and "(" not in p:
            return self.TYPE
        return self.BLOCK

    def at_namespace_scope(self) -> bool:
        return all(s == self.NAMESPACE for s in self.stack)

    def innermost(self) -> str:
        return self.stack[-1] if self.stack else self.NAMESPACE


def lex_lint_file(
    src: SourceText,
    sibling_decls: set[str],
    root: Path,
) -> list[Finding]:
    findings: list[Finding] = []
    code = "\n".join(src.code_lines)
    scope = ContainerScope(code, sibling_decls)
    rel = src.rel

    rng_exempt = any(fnmatch.fnmatch(rel, g) for g in RNG_EXEMPT_GLOBS)
    tracker = BraceTracker()
    # char offset of each line start in `code`, for scope resolution
    line_offsets = [0]
    for l in src.code_lines:
        line_offsets.append(line_offsets[-1] + len(l) + 1)

    def add(lineno: int, rule: str, message: str):
        findings.append(Finding(rel, lineno, rule, message))

    for lineno, line in enumerate(src.code_lines, start=1):
        if not line.strip():
            tracker.feed(line)
            continue

        # -- banned-source ------------------------------------------------
        for pattern, what in BANNED_SOURCE_PATTERNS:
            if pattern.search(line):
                add(lineno, "banned-source",
                    f"{what} — replays must not observe the host "
                    "(DETERMINISM.md §2)")

        # -- pointer-hash -------------------------------------------------
        for pattern, what in POINTER_HASH_PATTERNS:
            if pattern.search(line):
                add(lineno, "pointer-hash",
                    f"{what} — addresses differ run to run "
                    "(DETERMINISM.md §3)")

        # -- rng-discipline -----------------------------------------------
        if STD_ENGINE_RE.search(line):
            add(lineno, "rng-discipline",
                "<random> engine — all simulation draws must come from "
                "pmc::Rng streams labeled via Runtime::make_stream "
                "(DETERMINISM.md §1)")
        elif not rng_exempt:
            flagged = False
            for m in RNG_DECL_RE.finditer(line):
                what, tail = m.group(1), line[m.end() - 1 :]
                if tail.startswith("="):
                    init = line[m.end() :]
                    if STREAM_FACTORY_RE.search(init):
                        continue
                elif tail.startswith("("):
                    close = tail.find(")")
                    params = tail[1:close] if close != -1 else tail[1:]
                    # A function *declaration* returning Rng, not a
                    # construction: parameter-ish paren content.
                    if params.strip() == "" or (
                        PARAMLIST_TYPE_RE.search(params)
                        and not STREAM_FACTORY_RE.search(params)
                        and not re.match(r"\s*[\d'x]+\s*$", params)
                    ):
                        continue
                add(lineno, "rng-discipline",
                    f"direct {what} construction outside src/sim/ — label a "
                    "stream through Runtime::make_stream / "
                    "make_process_stream instead (DETERMINISM.md §1)")
                flagged = True
            if not flagged:
                for m in RNG_TEMP_RE.finditer(line):
                    # skip the declaration forms already handled above and
                    # factory-seeded temporaries
                    before = line[: m.start()]
                    if re.search(r"\b(?:pmc::)?(?:Rng|SplitMix64)\s+\w*$",
                                 before + m.group(0)[:-1]):
                        continue
                    tail = line[m.end() :]
                    close = tail.find(")")
                    args = tail[:close] if close != -1 else tail
                    if args.strip() == "" or STREAM_FACTORY_RE.search(args):
                        continue
                    if re.match(r"\s*(?:[A-Za-z_]\w*\s+[A-Za-z_]\w*|"
                                r"(?:std::|const\b|&)\S*)", args):
                        continue  # parameter list -> declaration
                    add(lineno, "rng-discipline",
                        f"direct {m.group(1)} temporary outside src/sim/ — "
                        "label a stream through Runtime::make_stream "
                        "(DETERMINISM.md §1)")

        # -- iteration-order ----------------------------------------------
        line_off = line_offsets[lineno - 1]
        for m in RANGE_FOR_RE.finditer(line):
            base = range_expr_base(m.group("expr"))
            if base and scope.is_unordered_at(base, line_off + m.start()):
                add(lineno, "iteration-order",
                    f"range-for over unordered container `{base}` — bucket "
                    "order leaks into results; use FlatMap or sorted "
                    "materialization (DETERMINISM.md §4)")
            elif "unordered_" in m.group("expr"):
                add(lineno, "iteration-order",
                    "range-for over an unordered container expression "
                    "(DETERMINISM.md §4)")
        for m in ITER_FOR_RE.finditer(line):
            base = range_expr_base(m.group("base"))
            if base and scope.is_unordered_at(base, line_off + m.start()):
                add(lineno, "iteration-order",
                    f"iterator loop over unordered container `{base}` — "
                    "bucket order leaks into results (DETERMINISM.md §4)")

        # -- thread-confinement -------------------------------------------
        if (
            STATIC_DECL_RE.search(line)
            and not STATIC_IMMUTABLE_RE.search(line)
            and tracker.innermost() != BraceTracker.TYPE
        ):
            stmt = line
            # join continuation lines up to ; or {
            k = lineno
            while (";" not in stmt and "{" not in stmt
                   and k < len(src.code_lines)):
                stmt += " " + src.code_lines[k]
                k += 1
            body = re.sub(r"^\s*(?:inline\s+)?static\s+", "", stmt)
            eq = body.find("=")
            paren = body.find("(")
            is_variable = ("(" not in body) or (eq != -1 and eq < paren)
            if is_variable and not re.match(
                r"\s*(?:const|constexpr|constinit|thread_local|"
                r"(?:std::)?atomic)\b", body
            ):
                add(lineno, "thread-confinement",
                    "mutable static — shared across worker-pool lanes and "
                    "across replays; confine state to the owning Runtime "
                    "(DETERMINISM.md §5)")

        tracker.feed(line)

    return findings


# --------------------------------------------------------------------------
# Driver


def discover_files(root: Path) -> list[Path]:
    out = []
    for d in DEFAULT_SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in CXX_SUFFIXES and p.is_file():
                out.append(p)
    return out


def sibling_decl_map(files: list[Path], root: Path) -> dict[Path, set[str]]:
    """For each file, unordered-container identifiers declared in its
    same-directory same-stem partner(s) (foo.cpp <-> foo.hpp), so members
    declared in a header are recognized in the implementation file."""
    by_stem: dict[tuple, list[Path]] = {}
    for f in files:
        by_stem.setdefault((f.parent, f.stem), []).append(f)
    decls: dict[Path, set[str]] = {}
    cache: dict[Path, set[str]] = {}

    def decls_of(p: Path) -> set[str]:
        if p not in cache:
            text = strip_comments_and_strings(
                p.read_text(encoding="utf-8", errors="replace"))
            cache[p] = collect_unordered_decls(text)
        return cache[p]

    for f in files:
        sibs = [s for s in by_stem[(f.parent, f.stem)] if s != f]
        decls[f] = set().union(*(decls_of(s) for s in sibs)) if sibs else set()
    return decls


def apply_allows(
    findings: list[Finding],
    sources: dict[str, SourceText],
    allowlist: list[AllowEntry],
) -> None:
    for f in findings:
        src = sources.get(f.path)
        if src:
            for ln in (f.line, f.line - 1):
                allow = src.allows.get(ln)
                if allow and f.rule in allow[0]:
                    f.allowed_by = f"inline:{ln} ({allow[1]})"
                    break
        if f.allowed_by is None:
            e = allowlisted(allowlist, f.path, f.rule)
            if e:
                f.allowed_by = f"{e.origin} ({e.justification})"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="files to lint (default: tree)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--no-allowlist", action="store_true",
                    help="ignore detlint.allow and inline annotations "
                    "(fixture mode)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--show-allowed", action="store_true",
                    help="also print findings suppressed by annotations or "
                    "the allowlist")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent.parent
    files = [Path(f).resolve() for f in args.files] if args.files else \
        discover_files(root)
    files = [f for f in files if f.suffix in CXX_SUFFIXES]
    if not files:
        print("detlint: no C++ files to lint", file=sys.stderr)
        return 2

    sources: dict[str, SourceText] = {}
    for f in files:
        try:
            src = load_source(f, root)
        except ValueError:
            print(f"detlint: {f} is outside --root {root}", file=sys.stderr)
            return 2
        sources[src.rel] = src

    siblings = sibling_decl_map(files, root)
    findings: list[Finding] = []
    for f in files:
        src = sources[f.relative_to(root).as_posix()]
        findings.extend(lex_lint_file(src, siblings[f], root))

    if not args.no_allowlist:
        allowlist = load_allowlist(Path(__file__).parent / "detlint.allow")
        apply_allows(findings, sources, allowlist)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    live = [f for f in findings if f.allowed_by is None]
    for f in findings:
        if f.allowed_by is None:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        elif args.show_allowed:
            print(f"{f.path}:{f.line}: [{f.rule}] allowed by {f.allowed_by}")

    suppressed = len(findings) - len(live)
    status = "FAIL" if live else "OK"
    print(f"detlint: {status} — {len(live)} violation(s), "
          f"{suppressed} allowed, {len(files)} file(s)")
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
