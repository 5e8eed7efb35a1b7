#!/usr/bin/env python3
"""pmte-lint — determinism static analysis for the pmte source tree.

The repo's determinism contract (docs/DETERMINISM.md, docs/ARCHITECTURE.md)
says outputs and logical counters are bit-identical at any thread count and
reproducible from a single seed.  Differential tests catch violations only
when a specific input happens to expose them; this linter rejects the code
patterns that *create* the exposure in the first place:

  rng-source           ad-hoc / time-seeded randomness outside src/util/rng.hpp
  unordered-container  std::unordered_{map,set} use without an ordered-ok waiver
  raw-omp-pragma       #pragma omp outside src/parallel/
  omp-fp-atomic        omp atomic/critical (unordered FP accumulation)
  omp-thread-api       omp_get_thread_num & friends outside parallel.hpp
  pointer-hash-order   hashing/ordering on pointer values (ASLR-dependent)
  wall-clock           clock reads outside src/util/timer.hpp and src/obs/

Waivers (must carry a non-empty reason; an empty reason is itself an error):

  // pmte-lint: ordered-ok(<why iteration order cannot leak>)
  // pmte-lint: allow(<rule-id>: <reason>)

A waiver silences findings of its rule on the same line, or — when it is
the only thing on its line — on the next line that contains code.

Lexing: a dependency-free C++ lexer blanks comment and string/char literal
characters (raw strings included) in place before the rules match, so the
rules see only code and waivers are read from comments alone.

Usage:
  scripts/pmte_lint.py [paths...]         lint the tree (default roots:
                                          src tests bench examples
                                          lifecycle_bench)
  scripts/pmte_lint.py --list-rules       machine-readable JSON rule table
  scripts/pmte_lint.py --self-test        run the fixture suite under
                                          tests/lint_fixtures/ (CTest: lint_selftest)

Exit status: 0 clean, 1 findings or self-test failure, 2 usage error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")
DEFAULT_ROOTS = ("src", "tests", "bench", "examples", "lifecycle_bench")
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")


class Rule:
    """One named determinism rule: regexes applied to comment-stripped code."""

    def __init__(self, rule_id, summary, rationale, patterns,
                 scope=DEFAULT_ROOTS, exempt=()):
        self.id = rule_id
        self.summary = summary
        self.rationale = rationale
        self.patterns = [re.compile(p) for p in patterns]
        self.scope = scope          # path prefixes the rule applies to
        self.exempt = exempt        # path prefixes exempt from the rule

    def applies_to(self, relpath):
        path = relpath.replace(os.sep, "/")
        if not any(path.startswith(s + "/") or path == s for s in self.scope):
            return False
        return not any(path.startswith(e) for e in self.exempt)

    def describe(self):
        return {
            "id": self.id,
            "summary": self.summary,
            "rationale": self.rationale,
            "patterns": [p.pattern for p in self.patterns],
            "scope": list(self.scope),
            "exempt": list(self.exempt),
            "waiver": "// pmte-lint: ordered-ok(<reason>)" if self.id ==
                      "unordered-container" else
                      "// pmte-lint: allow(%s: <reason>)" % self.id,
        }


RULES = [
    Rule(
        "rng-source",
        "all randomness flows from src/util/rng.hpp (seeded xoshiro256**)",
        "rand()/std::random_device/std::mt19937/time-seeded generators are "
        "not reproducible from the experiment master seed; every randomised "
        "component must take an explicit pmte::Rng (or a split_seed stream) "
        "so results are a pure function of (input, seed).",
        [r"\brand\s*\(", r"\bsrand\s*\(",
         r"\b(?:std::)?random_device\b",
         r"\b(?:std::)?mt19937(?:_64)?\b",
         r"\b(?:std::)?default_random_engine\b",
         r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"],
        exempt=("src/util/rng.hpp",),
    ),
    Rule(
        "unordered-container",
        "std::unordered_{map,set} use requires an ordered-ok(<reason>) waiver",
        "hash-container iteration order is implementation-defined; when it "
        "feeds results, counters, FP accumulation order, or serialized "
        "bytes, outputs silently depend on the standard library build. "
        "Every use must either be restructured (sorted iteration, std::map, "
        "dense arrays) or carry a waiver proving no iteration order leaks "
        "(e.g. find/emplace-only memo caches).",
        [r"\bunordered_(?:map|set|multimap|multiset)\s*<"],
    ),
    Rule(
        "raw-omp-pragma",
        "no raw #pragma omp outside src/parallel/",
        "all data parallelism goes through parallel_for / "
        "parallel_for_balanced / PerThreadBuffers so that deterministic "
        "chunking, nested-region detection, and thread-count-invariant "
        "merges are implemented once and audited once. A raw pragma "
        "bypasses that audit.",
        [r"#\s*pragma\s+omp\b"],
        exempt=("src/parallel/",),
    ),
    Rule(
        "omp-fp-atomic",
        "no omp atomic/critical accumulation (unordered FP reduction)",
        "atomic/critical sections commit updates in scheduling order; for "
        "floating-point accumulation that makes the rounding, and hence the "
        "result, depend on thread timing. Use per-thread partials merged in "
        "index order (PerThreadBuffers) or the reduction helpers in "
        "src/parallel/parallel.hpp, whose chunk-ordered folds are pinned by "
        "determinism tests.",
        [r"#\s*pragma\s+omp\s.*\b(?:atomic|critical)\b"],
    ),
    Rule(
        "omp-thread-api",
        "no omp_get_thread_num/omp_get_max_threads etc. outside parallel.hpp",
        "code keyed on the calling thread's id or the machine's thread "
        "count is exactly the code whose behaviour changes with "
        "OMP_NUM_THREADS. The wrappers in src/parallel/parallel.hpp "
        "(num_threads, thread_index, PerThreadBuffers) exist so such "
        "dependence stays confined to one reviewed file.",
        [r"\bomp_(?:get_thread_num|get_max_threads|get_num_threads|"
         r"set_num_threads|in_parallel|get_num_procs)\s*\("],
        exempt=("src/parallel/parallel.hpp",),
    ),
    Rule(
        "pointer-hash-order",
        "no hashing or ordering on raw pointer values",
        "pointer values differ run to run under ASLR and allocator "
        "nondeterminism; hashing them (std::hash<T*>) or casting them to "
        "integers for keys/comparison makes container layout and iteration "
        "order irreproducible. Key on stable ids (vertex, node, slot) "
        "instead.",
        [r"\bstd::hash\s*<[^>]*\*[^>]*>",
         r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"],
    ),
    Rule(
        "wall-clock",
        "no clock reads in library code outside src/util/timer.hpp and "
        "src/obs/",
        "wall-clock values leaking into algorithmic decisions (seeds, "
        "thresholds, tie-breaks) make runs irreproducible; library code "
        "measures time only through pmte::Timer / pmte::now_ns, and the "
        "observability layer (src/obs/) is write-only — spans and latency "
        "histograms record time but never feed it back into control flow "
        "(the bar documented in docs/DETERMINISM.md). Instrument with "
        "PMTE_OBS_SPAN instead of reading a clock.",
        [r"\bstd::chrono\b",
         r"\b(?:steady|system|high_resolution)_clock\b",
         r"\bgettimeofday\s*\(", r"\bclock\s*\(\s*\)"],
        scope=("src",),
        exempt=("src/util/timer.hpp", "src/obs/"),
    ),
]

RULE_IDS = {r.id for r in RULES}

WAIVER_RE = re.compile(
    r"pmte-lint:\s*(?:(ordered-ok)\(([^)]*)\)|allow\(\s*([a-z-]+)\s*:([^)]*)\))")
EXPECT_RE = re.compile(r"expect-lint:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")
FIXTURE_PATH_RE = re.compile(r"pmte-lint-fixture-path:\s*(\S+)")


class Finding:
    def __init__(self, path, line, rule_id, message, snippet=""):
        self.path = path
        self.line = line
        self.rule_id = rule_id
        self.message = message
        self.snippet = snippet

    def render(self):
        loc = "%s:%d" % (self.path, self.line)
        out = "%s: [%s] %s" % (loc, self.rule_id, self.message)
        if self.snippet:
            out += "\n    %s" % self.snippet.strip()
        return out


# --------------------------------------------------------------------------
# Lexer: produces (code_lines, comment_lines) — the original source split
# per line with comment/string-literal characters blanked out of the code
# channel and comment text preserved in the comment channel.

def lex(text):
    """Dependency-free C++ lexer: tracks //, /* */, "...", '...', and raw
    strings well enough to blank comments and literals per line."""
    code_lines, comment_lines = [], []
    code, comment = [], []
    state = "code"          # code | line_comment | block_comment | str | chr | raw
    raw_delim = ""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code_lines.append("".join(code))
            comment_lines.append("".join(comment))
            code, comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                code.append("  ")
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^(\s\\]{0,16})\(', text[i - 1:i + 20]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    state = "raw"
                    raw_delim = ")%s\"" % m.group(1)
                else:
                    state = "str"
                code.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                code.append(" ")
                i += 1
                continue
            code.append(c)
            i += 1
        elif state == "line_comment":
            comment.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                comment.append(c)
                i += 1
        elif state in ("str", "chr"):
            if c == "\\":
                i += 2
                continue
            if (state == "str" and c == '"') or (state == "chr" and c == "'"):
                state = "code"
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                i += len(raw_delim)
            else:
                i += 1
    code_lines.append("".join(code))
    comment_lines.append("".join(comment))
    return code_lines, comment_lines


# --------------------------------------------------------------------------
# Rule application.

def parse_waivers(comment_lines, code_lines):
    """Map line number (1-based) → {rule_id: reason}; bad waivers become
    findings.  A waiver on a comment-only line covers the next code line."""
    waivers = {}
    bad = []
    pending = {}  # comment-only-line waivers waiting for the next code line
    for idx, comment in enumerate(comment_lines):
        lineno = idx + 1
        has_code = bool(code_lines[idx].strip())
        line_waivers = {}
        for m in WAIVER_RE.finditer(comment):
            rule_id = "unordered-container" if m.group(1) else m.group(3)
            reason = (m.group(2) if m.group(1) else m.group(4)).strip()
            if rule_id not in RULE_IDS:
                bad.append((lineno, "waiver names unknown rule '%s'" % rule_id))
                continue
            if not reason:
                bad.append((lineno, "waiver for '%s' has an empty reason — "
                                    "say why the pattern is safe" % rule_id))
                continue
            line_waivers[rule_id] = reason
        if has_code:
            if pending:
                waivers.setdefault(lineno, {}).update(pending)
                pending = {}
            if line_waivers:
                waivers.setdefault(lineno, {}).update(line_waivers)
        elif line_waivers:
            pending.update(line_waivers)
    return waivers, bad


def lint_text(relpath, text, rules=None):
    """Lint one file's contents; relpath decides rule scoping."""
    code_lines, comment_lines = lex(text)
    waivers, bad_waivers = parse_waivers(comment_lines, code_lines)
    findings = [Finding(relpath, ln, "bad-waiver", msg)
                for ln, msg in bad_waivers]
    for rule in (rules or RULES):
        if not rule.applies_to(relpath):
            continue
        for idx, code in enumerate(code_lines):
            lineno = idx + 1
            if not any(p.search(code) for p in rule.patterns):
                continue
            if rule.id in waivers.get(lineno, {}):
                continue
            findings.append(Finding(relpath, lineno, rule.id, rule.summary,
                                    snippet=code))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings


def iter_tree_files(roots):
    for root in roots:
        absroot = os.path.join(REPO_ROOT, root)
        if os.path.isfile(absroot):
            if absroot.endswith(CXX_EXTENSIONS):
                yield os.path.relpath(absroot, REPO_ROOT)
            continue
        for dirpath, dirnames, filenames in os.walk(absroot):
            dirnames[:] = sorted(d for d in dirnames if d != "lint_fixtures"
                                 and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name),
                                          REPO_ROOT)


def lint_tree(roots):
    findings = []
    scanned = 0
    for relpath in iter_tree_files(roots):
        with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
            text = fh.read()
        findings.extend(lint_text(relpath, text))
        scanned += 1
    return findings, scanned


# --------------------------------------------------------------------------
# Fixture self-test: each fixture declares its pretend repo path (so rule
# scoping is exercised) and marks expected findings with `expect-lint:`.

def self_test():
    fixture_root = os.path.join(REPO_ROOT, FIXTURE_DIR)
    if not os.path.isdir(fixture_root):
        print("pmte-lint: fixture directory missing: %s" % FIXTURE_DIR)
        return 1
    failures = 0
    total = 0
    for dirpath, dirnames, filenames in os.walk(fixture_root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(CXX_EXTENSIONS):
                continue
            total += 1
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            m = FIXTURE_PATH_RE.search(text)
            if not m:
                print("FAIL %s: missing 'pmte-lint-fixture-path:' header"
                      % os.path.relpath(path, REPO_ROOT))
                failures += 1
                continue
            pretend = m.group(1)
            expected = set()
            for idx, line in enumerate(text.split("\n")):
                em = EXPECT_RE.search(line)
                if em:
                    for rule_id in re.split(r"\s*,\s*", em.group(1)):
                        expected.add((idx + 1, rule_id))
            got = {(f.line, f.rule_id)
                   for f in lint_text(pretend, text)}
            rel = os.path.relpath(path, REPO_ROOT)
            if got == expected:
                print("ok   %s (%d expected findings)" % (rel, len(expected)))
            else:
                failures += 1
                print("FAIL %s" % rel)
                for line, rule_id in sorted(expected - got):
                    print("  missing: line %d [%s]" % (line, rule_id))
                for line, rule_id in sorted(got - expected):
                    print("  spurious: line %d [%s]" % (line, rule_id))
    print("self-test: %d fixtures, %d failures" % (total, failures))
    return 1 if failures or total == 0 else 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="pmte_lint.py",
        description="determinism static analysis for the pmte tree")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: %s)"
                             % " ".join(DEFAULT_ROOTS))
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table as JSON and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/lint_fixtures/ suite")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(json.dumps({"waiver_syntax": [
                             "// pmte-lint: ordered-ok(<reason>)",
                             "// pmte-lint: allow(<rule-id>: <reason>)"],
                          "rules": [r.describe() for r in RULES]}, indent=2))
        return 0

    if args.self_test:
        return self_test()

    roots = args.paths or list(DEFAULT_ROOTS)
    findings, scanned = lint_tree(roots)
    for f in findings:
        print(f.render())
    status = "clean" if not findings else "%d finding(s)" % len(findings)
    print("pmte-lint: scanned %d files, %s" % (scanned, status))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
