#!/usr/bin/env python3
"""ftoa-lint: project-specific determinism & concurrency checks.

The repo's verification story (bit-identical guides, batch-vs-stream
equality, shard-merge invariance) rests on a determinism
contract that runtime tests can only spot-check: a violation hides until an
input happens to trigger it.  Every concurrency bug this project has shipped
and later caught at runtime belongs to a statically detectable class; this
tool encodes those classes as named checks and runs without a compiler
(pure-lexical "AST-lite" analysis: comments and string literals are blanked,
brace depth and declaration scopes are tracked, no clang needed).

Checks (see docs/static_analysis.md for the full catalog):

  no-unordered-iteration   Range-for / `.begin()` iteration over
                           `std::unordered_{map,set,...}` in the
                           determinism-contract paths (src/core, src/sim,
                           src/serve, src/flow).  Hash-order iteration
                           feeding output is exactly the class of bug the
                           shard-merge suites exist to catch at runtime.
  seeded-rng-only          `rand`, `srand`, `std::random_device`, and
                           wall-clock `now()` outside src/util (the
                           sanctioned wrappers: util/rng, util/stopwatch,
                           the thread pool's deadline clock).
  notify-under-lock        `notify_one`/`notify_all` lexically outside the
                           guarding lock scope — notifying after the lock
                           is released races the condition variable's
                           destruction (the exact TSan bug PR 6 fixed in
                           the shard drain path).
  no-std-function-hot-path `std::function` in src/flow, src/spatial,
                           src/retrieval, and src/core/guide_generator —
                           per-candidate/per-edge/per-type-pair callbacks
                           there must be templated parameters (a
                           type-erased call per inner-loop item is a
                           measured regression).
  include-hygiene          Headers must carry the canonical
                           `FTOA_<PATH>_H_` include guard; duplicate
                           includes; unused std includes (curated,
                           conservative token map).
  serial-solver            Thread-pool or std::thread/async/future use,
                           or includes of util/thread_pool.h, <future>
                           or <thread>, in src/flow and
                           src/core/guide_generator: the guide solve is
                           serial (no parallel path measured a win).
  feasible-reach           `MaxFeasibleDistance(` in src/ outside
                           src/model: a candidate query's radius comes
                           from FeasibleReach, which derives it from the
                           deadline predicate; the global bound is up to
                           3x wider and scans cells no feasible pair
                           reaches.

Allowlist grammar (a reason is mandatory; the annotation covers its own
line and the immediately following line):

    // ftoa-lint: ok(<check-name>): <reason>

Usage:
    tools/lint/ftoa_lint.py [--root DIR] [paths...]   lint tree or files
    tools/lint/ftoa_lint.py --selftest [DIR]          run fixture corpus
    tools/lint/ftoa_lint.py --list-checks             print check catalog

Exit codes: 0 clean, 1 findings (or selftest mismatch), 2 usage error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Check catalog and path scopes (relative, '/'-separated).

DETERMINISM_PATHS = ("src/core/", "src/sim/", "src/serve/", "src/flow/")
HOT_PATHS = ("src/flow/", "src/spatial/", "src/retrieval/",
             "src/core/guide_generator.")
SERIAL_SOLVER_PATHS = ("src/flow/", "src/core/guide_generator.")
RNG_SCOPE = ("src/", "tools/")
RNG_EXEMPT = ("src/util/", "tools/lint/")
REACH_EXEMPT = ("src/model/",)

CHECKS = {
    "no-unordered-iteration":
        "iteration over an unordered container in a determinism-contract "
        "path (%s): hash order is not part of the contract; iterate a "
        "sorted snapshot or annotate why the order cannot reach output"
        % ", ".join(DETERMINISM_PATHS),
    "seeded-rng-only":
        "unseeded randomness or wall-clock time outside src/util: all "
        "randomness must come from util/rng seeds and all timing from the "
        "util/stopwatch / thread-pool clocks",
    "notify-under-lock":
        "condition-variable notify outside the guarding lock scope: an "
        "unlocked notify races the cv's destruction once the waiter "
        "observes the predicate and returns",
    "no-std-function-hot-path":
        "std::function in a hot path (%s): per-item callbacks must be "
        "templated parameters, not type-erased" % ", ".join(HOT_PATHS),
    "serial-solver":
        "thread primitive in the serial guide solve (%s): the solvers and "
        "the guide generator run on the calling thread; a parallel path "
        "returns only with a bench showing it winning on more than one "
        "core" % ", ".join(SERIAL_SOLVER_PATHS),
    "include-hygiene":
        "include guard missing or non-canonical (FTOA_<PATH>_H_), "
        "duplicate include, or unused std include",
    "feasible-reach":
        "MaxFeasibleDistance outside src/model: take a candidate query's "
        "radius from FeasibleReach (model/feasibility.h), which derives it "
        "from the deadline predicate and the query's start window",
    "bad-annotation":
        "malformed ftoa-lint annotation (unknown check name or missing "
        "reason): the grammar is `// ftoa-lint: ok(<check>): <reason>`",
}

SOURCE_EXTS = (".cc", ".h", ".cpp")

# Directories scanned by a bare `ftoa_lint.py` run.
DEFAULT_SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
SKIP_DIR_NAMES = {"build", "lint"}  # tools/lint fixtures & build trees


class Finding:
    def __init__(self, rel, line, check, message):
        self.rel = rel
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.rel, self.line, self.check,
                                   self.message)


# --------------------------------------------------------------------------
# Lexical front end: blank comments/strings, collect annotations.

_ANNOT_RE = re.compile(r"ftoa-lint:\s*ok\(([A-Za-z0-9_-]+)\)\s*(?::\s*(\S.*))?")
_ANNOT_ANY_RE = re.compile(r"ftoa-lint\s*:")
_FIXTURE_RE = re.compile(r"lint-fixture:\s*path=(\S+)")
_EXPECT_RE = re.compile(r"lint-expect:\s*([A-Za-z0-9_-]+)")


class SourceFile:
    """One parsed file: cleaned text (comments and literals blanked to
    spaces, newlines kept so offsets map to the same lines), per-line
    allowlist annotations, and fixture metadata for the self-test."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.text = text
        self.allow = {}        # line -> set(check names)
        self.expects = []      # [(line, check)] from lint-expect markers
        self.fixture_path = None
        self.findings = []
        self.clean = self._scan(text)
        self.line_starts = self._line_starts(self.clean)

    def _scan(self, text):
        out = []
        i, n = 0, len(text)
        line = 1
        while i < n:
            c = text[i]
            if c == "\n":
                out.append(c)
                line += 1
                i += 1
            elif c == "/" and i + 1 < n and text[i + 1] == "/":
                j = text.find("\n", i)
                if j == -1:
                    j = n
                self._comment(text[i:j], line)
                out.append(" " * (j - i))
                i = j
            elif c == "/" and i + 1 < n and text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
                body = text[i:j]
                self._comment(body, line)
                out.append(re.sub(r"[^\n]", " ", body))
                line += body.count("\n")
                i = j
            elif c == '"' or c == "'":
                # Keep `#include "path"` literals intact: the include
                # checks and header resolution read them from clean text.
                ls = text.rfind("\n", 0, i) + 1
                if c == '"' and re.match(r"[ \t]*#[ \t]*include[ \t]*$",
                                         text[ls:i]):
                    j = text.find('"', i + 1)
                    j = n if j == -1 else j + 1
                    out.append(text[i:j])
                    i = j
                    continue
                # Raw strings: the prefix R was consumed as an identifier
                # char already; detect it by looking back.
                if c == '"' and i > 0 and text[i - 1] == "R":
                    j = text.find(")\"", i)
                    j = n if j == -1 else j + 2
                else:
                    j = i + 1
                    while j < n and text[j] != c:
                        j += 2 if text[j] == "\\" else 1
                    j = min(j + 1, n)
                body = text[i:j]
                out.append(c + re.sub(r"[^\n]", " ", body[1:-1]) + c
                           if len(body) >= 2 else body)
                line += body.count("\n")
                i = j
            else:
                out.append(c)
                i += 1
        return "".join(out)

    def _comment(self, body, line):
        m = _ANNOT_RE.search(body)
        if m:
            check, reason = m.group(1), m.group(2)
            if check not in CHECKS or check == "bad-annotation" or not reason:
                self.findings.append(Finding(
                    self.rel, line, "bad-annotation",
                    CHECKS["bad-annotation"]))
            else:
                for covered in (line, line + 1):
                    self.allow.setdefault(covered, set()).add(check)
        elif _ANNOT_ANY_RE.search(body) and "lint-expect" not in body \
                and "lint-fixture" not in body and "ftoa-lint: ok" not in body:
            self.findings.append(Finding(self.rel, line, "bad-annotation",
                                         CHECKS["bad-annotation"]))
        fm = _FIXTURE_RE.search(body)
        if fm:
            self.fixture_path = fm.group(1)
        em = _EXPECT_RE.search(body)
        if em:
            self.expects.append((line, em.group(1)))

    @staticmethod
    def _line_starts(clean):
        starts = [0]
        for i, ch in enumerate(clean):
            if ch == "\n":
                starts.append(i + 1)
        return starts

    def line_of(self, pos):
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def report(self, pos_or_line, check, message, by_pos=True):
        line = self.line_of(pos_or_line) if by_pos else pos_or_line
        if check in self.allow.get(line, ()):
            return
        self.findings.append(Finding(self.rel, line, check, message))


# --------------------------------------------------------------------------
# Helpers shared by checks.

_TMPL_OPEN = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")


def _match_angle(clean, open_pos):
    """Return position just past the `>` matching the `<` at open_pos,
    or -1.  Treats >> as two closers; ignores comparison operators by
    bailing out on `;`/`{`."""
    depth = 0
    i = open_pos
    n = len(clean)
    while i < n:
        c = clean[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            return -1
        i += 1
    return -1


_IDENT = r"[A-Za-z_]\w*"
_DECL_AFTER = re.compile(
    r"\s*(?:&|\*|&&)?\s*(" + _IDENT + r")\s*([;,=({\[)])")


def collect_unordered_names(clean):
    """Names of variables/members declared with an unordered container
    type, and names of functions returning one, in this cleaned text."""
    var_names = set()
    fn_names = set()
    for m in _TMPL_OPEN.finditer(clean):
        close = _match_angle(clean, m.end() - 1)
        if close == -1:
            continue
        dm = _DECL_AFTER.match(clean, close)
        if not dm:
            continue
        name, sep = dm.group(1), dm.group(2)
        if sep == "(":
            fn_names.add(name)
        elif sep != ")":  # `)` = cast/param-less context, not a decl
            var_names.add(name)
    return var_names, fn_names


_LAST_IDENT_RE = re.compile(r"(" + _IDENT + r")\s*(\(\s*\))?\s*$")


def _root_of_expr(expr):
    """(`name`, is_call) for the last member-chain segment of an
    iterated expression: `a.b.c_` -> (c_, False); `g->F()` -> (F, True)."""
    expr = expr.strip()
    m = _LAST_IDENT_RE.search(expr)
    if not m:
        return None, False
    return m.group(1), m.group(2) is not None


# --------------------------------------------------------------------------
# Checks.  Each takes (sf, ctx) and appends to sf.findings via sf.report.


def check_no_unordered_iteration(sf, ctx):
    if not sf.rel.startswith(DETERMINISM_PATHS):
        return
    var_names, fn_names = collect_unordered_names(sf.clean)
    for dep in ctx.resolve_includes(sf):
        v, f = collect_unordered_names(dep.clean)
        var_names |= v
        fn_names |= f
    if not var_names and not fn_names:
        return
    clean = sf.clean
    # Range-for: `for (<decl> : <expr>)`.
    for m in re.finditer(r"\bfor\s*\(", clean):
        close = _match_paren(clean, m.end() - 1)
        if close == -1:
            continue
        inner = clean[m.end():close - 1]
        colon = _split_range_for(inner)
        if colon == -1:
            continue
        name, is_call = _root_of_expr(inner[colon + 1:])
        if name is None:
            continue
        if (is_call and name in fn_names) or \
           (not is_call and name in var_names):
            sf.report(m.start(), "no-unordered-iteration",
                      "range-for over unordered container `%s`; %s" %
                      (name, CHECKS["no-unordered-iteration"]))
    # Iterator / algorithm entry: `<expr>.begin()` or `.cbegin()`.
    for m in re.finditer(
            r"(" + _IDENT + r")\s*(?:\.|->)\s*c?begin\s*\(", clean):
        if m.group(1) in var_names:
            sf.report(m.start(), "no-unordered-iteration",
                      "`%s.begin()` on an unordered container; %s" %
                      (m.group(1), CHECKS["no-unordered-iteration"]))


def _match_paren(clean, open_pos):
    depth = 0
    for i in range(open_pos, len(clean)):
        c = clean[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";":
            return -1
    return -1


def _split_range_for(inner):
    """Index of the range-for `:` in a for-parenthesis body, or -1 for a
    classic three-clause for.  Skips `::` and template/paren nesting."""
    depth = 0
    i = 0
    n = len(inner)
    while i < n:
        c = inner[i]
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ";":
            return -1
        elif c == ":" and depth == 0:
            if i + 1 < n and inner[i + 1] == ":":
                i += 2
                continue
            if i > 0 and inner[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


_RNG_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd\s*::\s*time\s*\(|(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time()"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::"
                r"\s*now\s*\("), "wall-clock now()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("), "gettimeofday"),
    (re.compile(r"\bstd\s*::\s*mt19937(?:_64)?\b"),
     "std::mt19937 (use util/rng xoshiro streams)"),
)


def check_seeded_rng_only(sf, ctx):
    del ctx
    if not sf.rel.startswith(RNG_SCOPE) or sf.rel.startswith(RNG_EXEMPT):
        return
    for pat, what in _RNG_PATTERNS:
        for m in pat.finditer(sf.clean):
            sf.report(m.start(), "seeded-rng-only",
                      "%s; %s" % (what, CHECKS["seeded-rng-only"]))


_LOCK_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:lock_guard|unique_lock|scoped_lock)\s*"
    r"(?:<[^;{}()]*>)?\s+(" + _IDENT + r")\s*[({]")
_NOTIFY_RE = re.compile(r"(?:\.|->)\s*notify_(?:one|all)\s*\(")


def check_notify_under_lock(sf, ctx):
    del ctx
    if not sf.rel.startswith("src/"):
        return
    clean = sf.clean
    notifies = [m.start() for m in _NOTIFY_RE.finditer(clean)]
    if not notifies:
        return
    locks = [(m.start(), m.group(1)) for m in _LOCK_DECL_RE.finditer(clean)]
    # Prefix-min of brace depth lets us test "scope still open" in O(1):
    # a lock at depth d is live at p iff depth never dips below d in (q,p].
    depth = 0
    depth_at = [0] * (len(clean) + 1)
    for i, c in enumerate(clean):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        depth_at[i + 1] = depth
    for p in notifies:
        held = False
        for q, name in locks:
            if q >= p:
                break
            dq = depth_at[q + 1]
            if dq <= 0:
                continue
            if min(depth_at[q + 1:p + 1]) < dq:
                continue  # the lock's scope closed before the notify
            unlocked = re.search(
                r"\b" + re.escape(name) + r"\s*\.\s*unlock\s*\(", clean[q:p])
            if unlocked:
                continue
            held = True
            break
        if not held:
            sf.report(p, "notify-under-lock", CHECKS["notify-under-lock"])


def check_no_std_function_hot_path(sf, ctx):
    del ctx
    if not sf.rel.startswith(HOT_PATHS):
        return
    for m in re.finditer(r"\bstd\s*::\s*function\s*<", sf.clean):
        sf.report(m.start(), "no-std-function-hot-path",
                  CHECKS["no-std-function-hot-path"])


_SERIAL_SOLVER_RE = re.compile(
    r"\b(?:ThreadPool|PoolSlice)\b"
    r"|\bstd\s*::\s*(?:thread|async|future)\b"
    r'|^[ \t]*#[ \t]*include[ \t]*(?:"util/thread_pool\.h"|<future>|<thread>)',
    re.MULTILINE)


def check_serial_solver(sf, ctx):
    del ctx
    if not sf.rel.startswith(SERIAL_SOLVER_PATHS):
        return
    for m in _SERIAL_SOLVER_RE.finditer(sf.clean):
        sf.report(m.start(), "serial-solver", CHECKS["serial-solver"])


# Conservative unused-include token map: a std header is flagged only when
# none of its distinctive tokens appear in the cleaned text.  Headers whose
# use is hard to fingerprint (<utility>, <cstddef>, <new>, ...) are not
# listed and never flagged.
_STD_HEADER_TOKENS = {
    "vector": r"\bvector\s*<",
    "deque": r"\bdeque\s*<",
    "list": r"\bstd\s*::\s*list\s*<",
    "map": r"(?<!unordered_)\bmap\s*<|(?<!unordered_)\bmultimap\s*<",
    "set": r"(?<!unordered_)(?<!_)\bset\s*<|(?<!unordered_)\bmultiset\s*<",
    "unordered_map": r"\bunordered_(?:multi)?map\s*<",
    "unordered_set": r"\bunordered_(?:multi)?set\s*<",
    "queue": r"\bqueue\s*<|\bpriority_queue\s*<",
    "stack": r"\bstack\s*<",
    "array": r"\bstd\s*::\s*array\s*<",
    "bitset": r"\bbitset\s*<",
    "regex": r"\bstd\s*::\s*w?regex\b|\bregex_(?:match|search|replace)\b",
    "random": r"\bstd\s*::\s*(?:mt19937|random_device|uniform_|normal_"
              r"|bernoulli_|discrete_d)",
    "thread": r"\bstd\s*::\s*thread\b|\bthis_thread\b",
    "mutex": r"\bmutex\b|\block_guard\b|\bunique_lock\b|\bscoped_lock\b"
             r"|\bcall_once\b|\bonce_flag\b",
    "condition_variable": r"\bcondition_variable\b|\bcv_status\b",
    "future": r"\bfuture\s*<|\bpromise\s*<|\bpackaged_task\s*<|\basync\s*\(",
    "atomic": r"\batomic\b",
    "optional": r"\boptional\s*<|\bnullopt\b|\bmake_optional\b",
    "variant": r"\bvariant\s*<|\bholds_alternative\b|\bstd\s*::\s*get\s*<"
               r"|\bmonostate\b|\bstd\s*::\s*visit\b",
    "tuple": r"\btuple\s*<|\bmake_tuple\b|\btie\s*\(|\bstd\s*::\s*get\s*<"
             r"|\bapply\s*\(",
    "functional": r"\bstd\s*::\s*function\s*<|\bstd\s*::\s*bind\b"
                  r"|\bstd\s*::\s*ref\b|\bstd\s*::\s*cref\b"
                  r"|\bstd\s*::\s*hash\s*<|\bmem_fn\b|\bstd\s*::\s*greater\b"
                  r"|\bstd\s*::\s*less\b|\bstd\s*::\s*plus\b|\binvoke\b",
    "fstream": r"\bifstream\b|\bofstream\b|\bfstream\b",
    "sstream": r"\bstringstream\b|\bistringstream\b|\bostringstream\b",
    "iostream": r"\bstd\s*::\s*(?:cout|cerr|cin|clog)\b",
    "iomanip": r"\bsetw\b|\bsetprecision\b|\bsetfill\b|\bfixed\b"
               r"|\bscientific\b|\bhex\b",
    "chrono": r"\bchrono\b|\bduration\s*<|\bmilliseconds\b|\bnanoseconds\b"
              r"|\bmicroseconds\b|\bseconds\b",
    "cmath": r"\bstd\s*::\s*(?:abs|fabs|sqrt|pow|exp|log|log1p|expm1|floor"
             r"|ceil|round|lround|llround|hypot|fmod|isnan|isinf|isfinite"
             r"|sin|cos|tan|atan2?|asin|acos|erf|lgamma|tgamma|cbrt|trunc"
             r"|copysign|nextafter|fmax|fmin|nan)\b"
             r"|\bM_PI\b|\bNAN\b|\bINFINITY\b|\bHUGE_VAL\b",
    "cstring": r"\bmemcpy\b|\bmemset\b|\bmemmove\b|\bstrlen\b|\bstrcmp\b"
               r"|\bstrncmp\b|\bstrcpy\b|\bstrerror\b",
    "cstdio": r"\bprintf\b|\bfprintf\b|\bsnprintf\b|\bsscanf\b|\bfopen\b"
              r"|\bFILE\b|\bstderr\b|\bstdout\b|\bfgets\b|\bputs\b"
              r"|\bperror\b|\bremove\s*\(",
    "cassert": r"\bassert\s*\(",
}
_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*([<"])([^>"]+)[>"]',
                         re.MULTILINE)


def expected_guard(rel):
    body = rel[4:] if rel.startswith("src/") else rel
    return "FTOA_" + re.sub(r"[/.]", "_", body).upper() + "_"


def check_include_hygiene(sf, ctx):
    del ctx
    clean = sf.clean
    if sf.rel.endswith(".h"):
        guard = expected_guard(sf.rel)
        has_ifndef = re.search(
            r"^[ \t]*#[ \t]*ifndef[ \t]+" + re.escape(guard), clean,
            re.MULTILINE)
        has_define = re.search(
            r"^[ \t]*#[ \t]*define[ \t]+" + re.escape(guard), clean,
            re.MULTILINE)
        if not (has_ifndef and has_define):
            sf.report(1, "include-hygiene",
                      "missing or non-canonical include guard (expected "
                      "`#ifndef %s`)" % guard, by_pos=False)
    seen = {}
    for m in _INCLUDE_RE.finditer(clean):
        key = (m.group(1), m.group(2))
        if key in seen:
            sf.report(m.start(2), "include-hygiene",
                      "duplicate include of %s%s%s" %
                      (m.group(1), m.group(2),
                       ">" if m.group(1) == "<" else '"'))
        seen[key] = m.start(2)
    if sf.rel.startswith("src/"):
        for (kind, name), pos in seen.items():
            if kind != "<":
                continue
            pat = _STD_HEADER_TOKENS.get(name)
            if pat is None:
                continue
            if not re.search(pat, clean):
                sf.report(pos, "include-hygiene",
                          "unused include <%s> (no %s usage found; remove "
                          "it or annotate why it is needed)" % (name, name))


def check_feasible_reach(sf, ctx):
    del ctx
    if not sf.rel.startswith("src/") or sf.rel.startswith(REACH_EXEMPT):
        return
    for m in re.finditer(r"\bMaxFeasibleDistance\s*\(", sf.clean):
        sf.report(m.start(), "feasible-reach", CHECKS["feasible-reach"])


ALL_CHECKS = (
    check_no_unordered_iteration,
    check_seeded_rng_only,
    check_notify_under_lock,
    check_no_std_function_hot_path,
    check_serial_solver,
    check_include_hygiene,
    check_feasible_reach,
)


# --------------------------------------------------------------------------
# Driver.

class LintContext:
    """Resolves a file's direct project includes so member/function names
    declared in headers (e.g. an unordered_map member in serve/x.h) are
    known when linting the .cc that iterates them."""

    def __init__(self, root):
        self.root = root
        self._cache = {}

    def load(self, path, rel):
        key = os.path.normpath(path)
        if key not in self._cache:
            try:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as f:
                    text = f.read()
            except OSError:
                self._cache[key] = None
                return None
            self._cache[key] = SourceFile(path, rel, text)
        return self._cache[key]

    def resolve_includes(self, sf):
        deps = []
        for m in _INCLUDE_RE.finditer(sf.clean):
            if m.group(1) != '"':
                continue
            inc = m.group(2)
            candidates = [
                (os.path.join(self.root, "src", inc), "src/" + inc),
                (os.path.join(os.path.dirname(sf.path), inc),
                 os.path.dirname(sf.rel) + "/" + inc),
            ]
            for path, rel in candidates:
                if os.path.isfile(path):
                    dep = self.load(path, rel)
                    if dep is not None:
                        deps.append(dep)
                    break
        return deps


def lint_file(ctx, path, rel):
    sf = ctx.load(path, rel)
    if sf is None:
        return []
    # A cached header may have been loaded (as a dependency) before its
    # own lint pass; findings accumulate on the shared object, so run
    # checks only once per file.
    if getattr(sf, "_checked", False):
        return sf.findings
    sf._checked = True
    for check in ALL_CHECKS:
        check(sf, ctx)
    sf.findings.sort(key=lambda f: (f.line, f.check))
    return sf.findings


def iter_tree(root):
    for top in DEFAULT_SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIR_NAMES)
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root)


def run_selftest(root, fixture_dir):
    """Each fixture names its pretend tree path (`// lint-fixture:
    path=...`) and marks every line expected to fire (`// lint-expect:
    <check>`).  The corpus proves each check both fires on its seeded
    violation and stays quiet on clean/allowlisted code."""
    failures = 0
    total = 0
    checks_fired = set()
    for dirpath, dirnames, filenames in os.walk(fixture_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTS):
                continue
            total += 1
            path = os.path.join(dirpath, name)
            ctx = LintContext(root)
            with open(path, "r", encoding="utf-8") as f:
                probe = SourceFile(path, name, f.read())
            rel = probe.fixture_path
            if rel is None:
                print("SELFTEST FAIL %s: no `// lint-fixture: path=...` "
                      "directive" % path)
                failures += 1
                continue
            # Sibling fixture headers resolve against the fixture dir.
            ctx._cache[os.path.normpath(path)] = SourceFile(
                path, rel, probe.text)
            findings = lint_file(ctx, path, rel)
            got = sorted((f.line, f.check) for f in findings)
            want = sorted(probe.expects)
            checks_fired.update(c for _, c in got)
            if got != want:
                failures += 1
                print("SELFTEST FAIL %s (as %s):" % (path, rel))
                for item in sorted(set(want) - set(got)):
                    print("  missing expected finding  line %d [%s]" % item)
                for item in sorted(set(got) - set(want)):
                    print("  unexpected finding        line %d [%s]" % item)
    missing_checks = set(CHECKS) - {"bad-annotation"} - checks_fired
    if missing_checks:
        failures += 1
        print("SELFTEST FAIL: no fixture exercises: %s" %
              ", ".join(sorted(missing_checks)))
    print("ftoa-lint selftest: %d fixtures, %d failures" % (total, failures))
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="ftoa_lint.py",
        description="project-specific determinism & concurrency lint")
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: whole tree)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--selftest", nargs="?", const="", metavar="DIR",
                    help="run the fixture corpus (default tests/lint)")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))

    if args.list_checks:
        for name in sorted(CHECKS):
            print("%-26s %s" % (name, CHECKS[name]))
        return 0

    if args.selftest is not None:
        fixture_dir = args.selftest or os.path.join(root, "tests", "lint")
        if not os.path.isdir(fixture_dir):
            print("no fixture dir: %s" % fixture_dir, file=sys.stderr)
            return 2
        return run_selftest(root, fixture_dir)

    ctx = LintContext(root)
    findings = []
    if args.paths:
        for p in args.paths:
            path = os.path.abspath(p)
            findings.extend(lint_file(ctx, path,
                                      os.path.relpath(path, root)))
    else:
        for path, rel in iter_tree(root):
            findings.extend(lint_file(ctx, path, rel))
    for f in findings:
        print(f)
    if findings:
        print("ftoa-lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
