#!/usr/bin/env python3
"""vstream AST lint: concurrency & isolation passes over the C++ tree.

The regex linter (vstream_lint.py) polices *tokens on a line*; this tool
polices *declarations and scopes* — properties the sweep engine's
shared-nothing contract depends on and that no line pattern can express.
It is driven by the build's compile database (compile_commands.json) and
runs one of two frontends:

  libclang   exact AST via clang.cindex when the Python bindings and a
             matching libclang are installed (the CI static job installs
             them); closure sizes come from the compiler's own layout.
  tokens     a built-in, dependency-free C++ lexer + scope tracker used
             everywhere else (the dev container has no libclang). It is a
             conservative under-approximation: it never invents sizes, so
             every capture-size finding is a provable lower bound.

Passes (all scoped to src/ unless given explicit paths):

  mutable-global   Every non-const variable with static storage duration —
                   namespace scope (named or anonymous), static local, or
                   static data member — is shared across every session
                   world a process runs. One such variable silently breaks
                   both shared-nothing sweep scaling and twin-run digest
                   equality. thread_local is flagged too: it is not shared
                   *across* workers, but it leaks state between successive
                   worlds run on the same worker thread, so it needs the
                   same explicit justification. Sanctioned variables live
                   in ALLOWLIST below with their reasons.
  capture-size     A lambda scheduled into sim::SimCallback whose closure
                   exceeds the 128-byte SBO falls back to a heap
                   allocation per event — on the dispatch hot path. The
                   tokens frontend sums the sizes it can prove (captured
                   locals with known layout, references/pointers at 8);
                   libclang measures the closure type exactly.
  handle-escape    A sim::EventHandle is a {slot, generation} token into
                   one world's event arena. A handle with static storage
                   duration outlives the arena generation it indexes and
                   is a use-after-world bug waiting for a slot reuse.

Waivers: append `// vstream-ast-lint: allow(<pass>): <reason>` to the
offending line, or `// vstream-ast-lint-file: allow(<pass>): <reason>`
anywhere in the file for a whole-file waiver. Reasons are mandatory —
bare allow() does not parse.

Exit status (the repo-wide analyzer convention, shared with
vstream_lint.py and check_bench_floor.py):
  0  clean — no findings
  1  findings reported
  2  usage or environment error (bad flags, unreadable files, missing
     frontend)
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

PASSES = ("mutable-global", "capture-size", "handle-escape")

# SimCallback::kInlineBytes — keep in lockstep with src/sim/callback.hpp
# (ast_lint_test greps the header to prove the two agree).
SBO_BYTES = 128

# Sanctioned static-storage variables: (path suffix, variable name) -> reason.
# Everything here is harness- or diagnostics-level state that never feeds a
# simulation result; a new entry needs the same kind of justification.
ALLOWLIST = {
    ("src/check/contracts.cpp", "g_violations"): (
        "process-lifetime violation counter; std::atomic, diagnostics only, "
        "never read by simulation code"
    ),
    ("src/runner/parallel_sweep.cpp", "t_worker_index"): (
        "thread_local worker id for harness-side profiling attribution; "
        "never read inside a session world"
    ),
}

LINE_WAIVER = re.compile(
    r"//\s*vstream-ast-lint:\s*allow\((?P<passes>[a-z-]+(?:\s*,\s*[a-z-]+)*)\):\s*\S"
)
FILE_WAIVER = re.compile(
    r"//\s*vstream-ast-lint-file:\s*allow\((?P<passes>[a-z-]+(?:\s*,\s*[a-z-]+)*)\):\s*\S"
)


@dataclass
class Finding:
    path: Path
    line: int
    pass_name: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.pass_name}] {self.message}"


@dataclass
class Waivers:
    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)

    def waived(self, pass_name: str, line: int) -> bool:
        if pass_name in self.file_level:
            return True
        return pass_name in self.by_line.get(line, set())


def collect_waivers(text: str) -> Waivers:
    waivers = Waivers()
    for match in FILE_WAIVER.finditer(text):
        waivers.file_level.update(p.strip() for p in match.group("passes").split(","))
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = LINE_WAIVER.search(line)
        if match:
            waivers.by_line.setdefault(lineno, set()).update(
                p.strip() for p in match.group("passes").split(",")
            )
    return waivers


def allowlisted(path: Path, name: str) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for (suffix, var) in ALLOWLIST if var == name)


# --------------------------------------------------------------------------
# Tokens frontend: lexer
# --------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # 'ident' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int


_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = (
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)


def lex(text: str) -> list[Tok]:
    """Tokenize C++ source: comments and preprocessor lines are dropped,
    string/char literals are kept as single opaque tokens."""
    toks: list[Tok] = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if at_line_start and c == "#":
            # Preprocessor directive: skip to end of line, honouring
            # backslash continuations.
            while i < n:
                if text[i] == "\n":
                    if text[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            continue
        at_line_start = False
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if text[i + 1] == "*":
                end = text.find("*/", i + 2)
                if end == -1:
                    break
                line += text.count("\n", i, end + 2)
                i = end + 2
                continue
        if c == "R" and text[i : i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim"
            open_paren = text.find("(", i + 2)
            if open_paren == -1:
                i += 2
                continue
            delim = text[i + 2 : open_paren]
            close = text.find(")" + delim + '"', open_paren + 1)
            if close == -1:
                break
            end = close + len(delim) + 2
            toks.append(Tok("str", '""', line))
            line += text.count("\n", i, end)
            i = end
            continue
        if c == '"' or (c == "'" and not (toks and toks[-1].kind in ("num",))):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            toks.append(Tok("str" if quote == '"' else "chr", quote * 2, line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("ident", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for p in _PUNCT3:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += 3
                break
        else:
            for p in _PUNCT2:
                if text.startswith(p, i):
                    toks.append(Tok("punct", p, line))
                    i += 2
                    break
            else:
                toks.append(Tok("punct", c, line))
                i += 1
    return toks


# --------------------------------------------------------------------------
# Tokens frontend: scope walker
# --------------------------------------------------------------------------

# Scope kinds a `{` can open.
_NAMESPACE, _CLASS, _ENUM, _FUNCTION, _BLOCK, _EXPR = (
    "namespace", "class", "enum", "function", "block", "expr",
)

_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
_CLASS_KEYWORDS = {"class", "struct", "union"}

# Types whose size the tokens frontend may rely on. Fixed-width integers,
# fundamental types, and the handful of std vocabulary types whose layout
# is stable across the ABIs we build on. Sizes are conservative *minimums*
# (libc++ std::string is 24 bytes, libstdc++ 32 — we claim 24), keeping
# every capture-size report a provable lower bound.
KNOWN_SIZES = {
    "bool": 1, "char": 1, "signed char": 1, "unsigned char": 1,
    "short": 2, "unsigned short": 2,
    "int": 4, "unsigned": 4, "unsigned int": 4, "float": 4,
    "long": 8, "unsigned long": 8, "long long": 8, "unsigned long long": 8,
    "double": 8, "std::size_t": 8, "size_t": 8, "std::ptrdiff_t": 8,
    "std::int8_t": 1, "std::uint8_t": 1, "std::int16_t": 2, "std::uint16_t": 2,
    "std::int32_t": 4, "std::uint32_t": 4, "std::int64_t": 8, "std::uint64_t": 8,
    "int8_t": 1, "uint8_t": 1, "int16_t": 2, "uint16_t": 2,
    "int32_t": 4, "uint32_t": 4, "int64_t": 8, "uint64_t": 8,
    "std::string": 24, "std::string_view": 16, "std::vector": 24,
}

_HANDLE_NAMES = ("EventHandle",)


def _looks_like_type_head(tokens: list[Tok], idx: int) -> bool:
    """Is tokens[idx] (a class keyword) the head of a type definition or
    forward declaration (as opposed to an elaborated type specifier in a
    variable declaration)?"""
    j = idx + 1
    # skip attributes / name path
    while j < len(tokens) and (tokens[j].kind == "ident" or tokens[j].text in ("::",)):
        j += 1
    # skip template argument list on the name
    if j < len(tokens) and tokens[j].text == "<":
        depth = 0
        while j < len(tokens):
            if tokens[j].text == "<":
                depth += 1
            elif tokens[j].text == ">":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            elif tokens[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    j += 1
                    break
            j += 1
    if j >= len(tokens):
        return True
    # `struct X {` / `struct X : base {` / `struct X;` are definitions or
    # forward declarations; `struct X y` is a variable of elaborated type.
    return tokens[j].text in ("{", ":", ";", "final")


class TokenFrontend:
    """Single-file analysis: scope tracking + the three passes."""

    def __init__(self, path: Path, text: str, enabled: set[str]):
        self.path = path
        self.enabled = enabled
        self.waivers = collect_waivers(text)
        self.toks = lex(text)
        self.findings: list[Finding] = []

    def report(self, pass_name: str, line: int, message: str) -> None:
        if pass_name not in self.enabled:
            return
        if self.waivers.waived(pass_name, line):
            return
        self.findings.append(Finding(self.path, line, pass_name, message))

    # -- scope classification ---------------------------------------------

    def classify_brace(self, idx: int, scope_stack: list[str]) -> str:
        """Classify the `{` at self.toks[idx] by looking backwards."""
        toks = self.toks
        j = idx - 1
        # Skip over trailing specifiers between ')' and '{'.
        specifiers = {"const", "noexcept", "override", "final", "mutable",
                      "->", "volatile", "&", "&&", "try"}
        saw_specifier = False
        while j >= 0 and (toks[j].text in specifiers or
                          (saw_specifier and toks[j].kind == "ident")):
            if toks[j].text in specifiers:
                saw_specifier = True
            j -= 1
        if j < 0:
            return _BLOCK
        t = toks[j].text
        if t == ")":
            # Find the matching '(' and the token before it.
            depth = 0
            k = j
            while k >= 0:
                if toks[k].text == ")":
                    depth += 1
                elif toks[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            head = toks[k - 1].text if k >= 1 else ""
            if head in _CONTROL_KEYWORDS:
                return _BLOCK
            if head == "]":
                return _FUNCTION  # lambda with parameter list
            return _FUNCTION
        if t == "]":
            return _FUNCTION  # lambda without parameter list
        if t in ("do", "else", "try"):
            return _BLOCK
        # Walk back over the head: `namespace a::b`, `struct Name : Base<T>`,
        # `extern "C"`. The first head keyword met decides the scope kind.
        k = j
        head_limit = 0
        while k >= 0 and head_limit < 64:
            text = toks[k].text
            if text == "namespace" or text == "extern":
                return _NAMESPACE  # extern "C" blocks are scope-transparent
            if text in _CLASS_KEYWORDS:
                return _CLASS
            if text == "enum":
                return _ENUM
            if text in ("{", "}", ";", ")"):
                break
            k -= 1
            head_limit += 1
        if t == "=" or toks[j].kind in ("ident", "num") or t in (",", "(", "return", "{"):
            return _EXPR
        return _BLOCK

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Finding]:
        toks = self.toks
        scope: list[str] = []  # kinds of enclosing braces
        i = 0
        stmt_start = 0  # token index where the current statement began
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "{":
                kind = self.classify_brace(i, scope)
                # A '{' terminates the pending statement (class head,
                # function head, namespace head, or a brace initializer).
                if kind == _EXPR:
                    # Brace initializer inside a declaration — skip to its
                    # matching '}' so the declaration statement continues.
                    i = self.match_brace(i)
                    i += 1
                    continue
                if kind in (_NAMESPACE, _CLASS, _ENUM, _FUNCTION, _BLOCK):
                    scope.append(kind)
                stmt_start = i + 1
                i += 1
                continue
            if t.text == "}":
                if scope:
                    scope.pop()
                stmt_start = i + 1
                i += 1
                continue
            if t.text == ";":
                self.analyze_statement(toks[stmt_start:i], scope)
                stmt_start = i + 1
                i += 1
                continue
            if (t.kind == "ident" and
                    t.text in ("schedule_at", "schedule_after", "SimCallback", "emplace_callback")):
                self.analyze_schedule_site(i, scope)
            i += 1
        return self.findings

    def match_brace(self, idx: int) -> int:
        depth = 0
        i = idx
        n = len(self.toks)
        while i < n:
            if self.toks[i].text == "{":
                depth += 1
            elif self.toks[i].text == "}":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return n - 1

    # -- pass: mutable-global / handle-escape on declarations --------------

    def analyze_statement(self, stmt: list[Tok], scope: list[str]) -> None:
        if not stmt:
            return
        texts = [t.text for t in stmt]
        at_namespace = all(s == _NAMESPACE for s in scope)
        at_class = bool(scope) and scope[-1] == _CLASS
        in_function = any(s in (_FUNCTION, _BLOCK) for s in scope)

        is_static = "static" in texts
        is_thread_local = "thread_local" in texts

        # Fast rejects: things that are never variable definitions.
        if texts[0] in ("using", "typedef", "friend", "static_assert", "return",
                        "goto", "case", "default", "break", "continue", "throw",
                        "public", "private", "protected", "namespace"):
            return
        if "operator" in texts:
            return
        # Skip a leading template<...> header (variable templates are
        # instantiated per specialization; flagging the pattern itself
        # produces noise for the traits-style usage in the tree).
        if texts[0] == "template":
            return
        # Type definitions / forward declarations.
        for k, t in enumerate(stmt):
            if t.text in _CLASS_KEYWORDS and _looks_like_type_head(stmt, k):
                return
            if t.text == "enum":
                return

        storage_static = (
            (at_namespace and not ("extern" in texts and "=" not in texts))
            or (in_function and (is_static or is_thread_local))
            or (at_class and is_static)
        )
        if not storage_static:
            return

        decl = self.parse_declaration(stmt)
        if decl is None:
            return
        name, is_const, line, type_tokens = decl

        if "handle-escape" in self.enabled and any(
                h in type_tokens for h in _HANDLE_NAMES):
            where = ("namespace scope" if at_namespace
                     else "static data member" if at_class else "static local")
            self.report(
                "handle-escape", line,
                f"'{name}' stores a sim::EventHandle with static storage duration "
                f"({where}); handles index one world's event arena and must not "
                f"outlive it — keep the handle inside the world that scheduled it",
            )
            # A static EventHandle is also a mutable global, but one report
            # per root cause is enough.
            return

        if is_const:
            return
        if allowlisted(self.path, name):
            return
        kind = ("thread_local variable" if is_thread_local
                else "static data member" if at_class and not at_namespace
                else "static local" if in_function
                else "namespace-scope variable")
        self.report(
            "mutable-global", line,
            f"mutable {kind} '{name}' is shared across every session world in "
            f"the process; it breaks shared-nothing sweep scaling and twin-run "
            f"digests — make it const/constexpr, move it into the world, or "
            f"allowlist it with a justification",
        )

    def parse_declaration(self, stmt: list[Tok]):
        """Return (name, top_level_const, line, type_token_texts) for a
        variable definition statement, or None if this is not one."""
        texts = [t.text for t in stmt]
        # Locate the end of the declarator head: the first top-level '=' or
        # the end of statement. Top-level '(' right after an identifier with
        # no preceding '=' means a function declaration.
        depth_par = depth_ang = depth_sq = 0
        eq_idx = None
        for k, t in enumerate(stmt):
            x = t.text
            if x == "(":
                if depth_par == 0 and depth_ang == 0 and eq_idx is None:
                    # function declaration/definition head (house style bans
                    # paren-init of globals, which keeps this unambiguous)
                    return None
                depth_par += 1
            elif x == ")":
                depth_par -= 1
            elif x == "[":
                depth_sq += 1
            elif x == "]":
                depth_sq -= 1
            elif x == "<":
                depth_ang += 1
            elif x in (">", ">>") and depth_ang > 0:
                depth_ang -= 2 if x == ">>" else 1
            elif x == "=" and depth_par == 0 and depth_ang == 0 and depth_sq == 0:
                eq_idx = k
                break
        head = stmt[:eq_idx] if eq_idx is not None else stmt
        # Declarator name: last identifier in the head that is not a
        # keyword, skipping array extents.
        specifier_words = {
            "static", "thread_local", "extern", "inline", "constexpr",
            "constinit", "const", "volatile", "mutable", "register", "alignas",
        }
        name_idx = None
        k = len(head) - 1
        while k >= 0:
            if head[k].text == "]":
                while k >= 0 and head[k].text != "[":
                    k -= 1
                k -= 1
                continue
            if head[k].kind == "ident" and head[k].text not in specifier_words:
                # skip template arg tails: `foo<...>` name is before '<'
                name_idx = k
                break
            k -= 1
        if name_idx is None:
            return None
        name_tok = head[name_idx]
        type_part = [t.text for t in head[:name_idx]]
        if not type_part:
            return None
        # Top-level constness: if the declarator has a '*', the object (the
        # pointer itself) is const only when 'const' appears after the last
        # '*'. Without one, any const/constexpr specifier makes it const.
        if "constexpr" in type_part:
            return (name_tok.text, True, name_tok.line, type_part)
        if "*" in type_part:
            last_star = len(type_part) - 1 - type_part[::-1].index("*")
            is_const = "const" in type_part[last_star + 1:]
        elif "&" in type_part or "&&" in type_part:
            amp = (type_part.index("&") if "&" in type_part
                   else type_part.index("&&"))
            is_const = "const" in type_part[:amp]
        else:
            is_const = "const" in type_part
        return (name_tok.text, is_const, name_tok.line, type_part)

    # -- pass: capture-size -------------------------------------------------

    def analyze_schedule_site(self, idx: int, scope: list[str]) -> None:
        if "capture-size" not in self.enabled:
            return
        toks = self.toks
        n = len(toks)
        # Find the opening paren/brace of the call.
        j = idx + 1
        while j < n and toks[j].text not in ("(", "{", ";"):
            j += 1
        if j >= n or toks[j].text == ";":
            return
        close = self.match_paren(j) if toks[j].text == "(" else self.match_brace(j)
        # Find a lambda introducer '[' at argument level inside the call.
        k = j + 1
        while k < close:
            if toks[k].text == "[" and self.is_lambda_introducer(k):
                self.check_lambda_captures(k, close)
                return
            k += 1

    def match_paren(self, idx: int) -> int:
        depth = 0
        i = idx
        n = len(self.toks)
        while i < n:
            if self.toks[i].text == "(":
                depth += 1
            elif self.toks[i].text == ")":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return n - 1

    def is_lambda_introducer(self, idx: int) -> bool:
        prev = self.toks[idx - 1] if idx > 0 else None
        if prev is None:
            return True
        # A '[' after an identifier / ')' / ']' is a subscript.
        return not (prev.kind in ("ident", "num") or prev.text in (")", "]"))

    def check_lambda_captures(self, idx: int, limit: int) -> None:
        toks = self.toks
        line = toks[idx].line
        end = idx + 1
        depth = 0
        while end < limit:
            t = toks[end].text
            if t == "[":
                depth += 1
            elif t == "]":
                if depth == 0:
                    break
                depth -= 1
            end += 1
        capture_toks = toks[idx + 1 : end]
        if not capture_toks:
            return
        if capture_toks[0].text in ("=", "&") and len(capture_toks) == 1:
            return  # default capture: membership unknowable without semantics
        locals_table = self.collect_local_sizes(idx)
        total = 0
        exact = True
        rendered: list[str] = []
        item: list[Tok] = []
        depth = 0
        items: list[list[Tok]] = []
        for t in capture_toks:
            if t.text in ("(", "[", "<", "{"):
                depth += 1
            elif t.text in (")", "]", ">", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                items.append(item)
                item = []
            else:
                item.append(t)
        if item:
            items.append(item)
        for cap in items:
            cap_texts = [t.text for t in cap]
            rendered.append(" ".join(cap_texts))
            if not cap_texts:
                continue
            if cap_texts[0] == "&" or cap_texts[0] == "this":
                total += 8
            elif cap_texts[0] == "*" and len(cap_texts) > 1 and cap_texts[1] == "this":
                exact = False  # *this copies the enclosing object
                total += 1
            elif "=" in cap_texts:
                # init capture: size known only if the initializer is a
                # plain identifier found in the local table
                eq = cap_texts.index("=")
                init = cap_texts[eq + 1:]
                if len(init) == 1 and init[0] in locals_table:
                    total += locals_table[init[0]]
                elif "std::move" in "".join(init) and init[-2:-1] == ["("]:
                    exact = False
                    total += 1
                else:
                    exact = False
                    total += 1
            else:
                name = cap_texts[-1]
                if name in locals_table:
                    total += locals_table[name]
                else:
                    exact = False
                    total += 1
        if total > SBO_BYTES:
            bound = "closure size" if exact else "closure size lower bound"
            self.report(
                "capture-size", line,
                f"lambda scheduled into sim::SimCallback captures "
                f"[{', '.join(rendered)}] — {bound} {total} bytes exceeds the "
                f"{SBO_BYTES}-byte SBO, forcing a heap allocation per scheduled "
                f"event; shrink the capture (pointer/reference to bulky state) "
                f"or hoist the payload into the owning component",
            )

    def collect_local_sizes(self, before_idx: int) -> dict[str, int]:
        """Scan backwards through the enclosing function body for local
        declarations whose size the KNOWN_SIZES table can resolve, plus
        std::array<T, N> and C arrays of sized element types."""
        toks = self.toks
        # Find the start of the enclosing function body.
        depth = 0
        start = before_idx
        while start > 0:
            t = toks[start].text
            if t == "}":
                depth += 1
            elif t == "{":
                if depth == 0:
                    break
                depth -= 1
            start -= 1
        table: dict[str, int] = {}
        i = start
        while i < before_idx:
            t = toks[i]
            if t.kind != "ident":
                i += 1
                continue
            size = None
            consumed = 1
            two = (f"{t.text}::{toks[i + 2].text}"
                   if i + 2 < before_idx and toks[i + 1].text == "::" else None)
            if two == "std::array" and i + 3 < before_idx and toks[i + 3].text == "<":
                close = self.match_angle(i + 3)
                inner = toks[i + 4 : close]
                comma = next((k for k, x in enumerate(inner) if x.text == ","), None)
                if comma is not None:
                    elem = "".join(x.text for x in inner[:comma])
                    count_txt = "".join(x.text for x in inner[comma + 1:]).strip()
                    elem_size = KNOWN_SIZES.get(elem)
                    if elem_size and count_txt.isdigit():
                        size = elem_size * int(count_txt)
                        consumed = close - i + 1
            elif two in KNOWN_SIZES:
                size = KNOWN_SIZES[two]
                consumed = 3
            elif t.text in KNOWN_SIZES and two is None:
                size = KNOWN_SIZES[t.text]
            if size is not None:
                j = i + consumed
                # unsigned long / long long style multi-word types
                while j < before_idx and toks[j].kind == "ident" and toks[j].text in (
                        "long", "int", "char", "unsigned"):
                    j += 1
                if j < before_idx and toks[j].kind == "ident":
                    name = toks[j].text
                    # C array extent: name[N]
                    if (j + 1 < before_idx and toks[j + 1].text == "[" and
                            j + 2 < before_idx and toks[j + 2].kind == "num"):
                        try:
                            size *= int(toks[j + 2].text)
                        except ValueError:
                            size = None
                    if size is not None:
                        table[name] = size
                i = j + 1
                continue
            i += 1
        return table

    def match_angle(self, idx: int) -> int:
        depth = 0
        i = idx
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i
            elif t == ";":
                return i
            i += 1
        return n - 1


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

class LibclangFrontend:
    """Exact AST passes via clang.cindex. Requires the python3-clang
    bindings and a matching libclang shared library (CI installs both);
    raises RuntimeError when unavailable so the driver can fall back."""

    def __init__(self, compdb_dir: Path, enabled: set[str]):
        try:
            from clang import cindex  # noqa: PLC0415
        except ImportError as exc:
            raise RuntimeError(f"clang.cindex unavailable: {exc}") from exc
        self.cindex = cindex
        try:
            self.index = cindex.Index.create()
        except Exception as exc:  # libclang.so missing / version skew
            raise RuntimeError(f"libclang unavailable: {exc}") from exc
        try:
            self.compdb = cindex.CompilationDatabase.fromDirectory(str(compdb_dir))
        except Exception as exc:
            raise RuntimeError(
                f"cannot load compile_commands.json from {compdb_dir}: {exc}"
            ) from exc
        self.enabled = enabled
        self.findings: list[Finding] = []
        self._waiver_cache: dict[str, Waivers] = {}

    def waivers_for(self, path: str) -> Waivers:
        if path not in self._waiver_cache:
            try:
                text = Path(path).read_text(encoding="utf-8", errors="replace")
            except OSError:
                text = ""
            self._waiver_cache[path] = collect_waivers(text)
        return self._waiver_cache[path]

    def report(self, pass_name: str, path: str, line: int, message: str) -> None:
        if pass_name not in self.enabled:
            return
        if self.waivers_for(path).waived(pass_name, line):
            return
        self.findings.append(Finding(Path(path), line, pass_name, message))

    def run(self, files: list[Path], scope_root: Path) -> list[Finding]:
        ci = self.cindex
        seen_locations: set[tuple[str, int, str]] = set()
        for path in files:
            if path.suffix not in (".cpp", ".cc"):
                continue  # headers are visited through their including TUs
            commands = self.compdb.getCompileCommands(str(path))
            if not commands:
                continue
            args = [a for a in list(commands[0].arguments)[1:-1]
                    if a not in ("-c", "-o", str(path))]
            # Drop the -o target that follows a consumed flag.
            cleaned = []
            skip = False
            for a in args:
                if skip:
                    skip = False
                    continue
                if a in ("-o", "-c"):
                    skip = a == "-o"
                    continue
                cleaned.append(a)
            try:
                tu = self.index.parse(str(path), args=cleaned)
            except ci.TranslationUnitLoadError:
                continue
            self.visit(tu.cursor, scope_root, seen_locations)
        return self.findings

    def _in_scope(self, cursor, scope_root: Path) -> bool:
        loc = cursor.location
        if loc.file is None:
            return False
        try:
            Path(loc.file.name).resolve().relative_to(scope_root)
        except ValueError:
            return False
        return True

    def visit(self, cursor, scope_root: Path, seen) -> None:
        ci = self.cindex
        for child in cursor.get_children():
            kind = child.kind
            if kind == ci.CursorKind.VAR_DECL and self._in_scope(child, scope_root):
                self.check_var(child, seen)
            if (kind in (ci.CursorKind.CALL_EXPR,) and
                    child.spelling in ("schedule_at", "schedule_after") and
                    self._in_scope(child, scope_root)):
                self.check_call(child)
            self.visit(child, scope_root, seen)

    def check_var(self, cursor, seen) -> None:
        ci = self.cindex
        sem = cursor.semantic_parent
        at_namespace = sem is not None and sem.kind in (
            ci.CursorKind.NAMESPACE, ci.CursorKind.TRANSLATION_UNIT)
        static_storage = (
            at_namespace
            or cursor.storage_class == ci.StorageClass.STATIC
            or any(t.spelling == "thread_local" for t in cursor.get_tokens())
        )
        if not static_storage:
            return
        loc = cursor.location
        key = (loc.file.name, loc.line, cursor.spelling)
        if key in seen:
            return
        seen.add(key)
        type_spelling = cursor.type.spelling
        if "EventHandle" in type_spelling:
            self.report(
                "handle-escape", loc.file.name, loc.line,
                f"'{cursor.spelling}' stores a sim::EventHandle with static "
                f"storage duration; handles index one world's event arena and "
                f"must not outlive it",
            )
            return
        canonical = cursor.type.get_canonical()
        if canonical.is_const_qualified():
            return
        if "const" in type_spelling.split()[:1]:
            return
        if allowlisted(Path(loc.file.name), cursor.spelling):
            return
        self.report(
            "mutable-global", loc.file.name, loc.line,
            f"mutable static-storage variable '{cursor.spelling}' "
            f"(type {type_spelling}) is shared across every session world in "
            f"the process; make it const, move it into the world, or allowlist "
            f"it with a justification",
        )

    def check_call(self, cursor) -> None:
        ci = self.cindex
        for arg in cursor.get_arguments():
            node = arg
            # unwrap implicit casts / materializations
            while node is not None and node.kind != ci.CursorKind.LAMBDA_EXPR:
                children = list(node.get_children())
                node = children[0] if len(children) == 1 else None
            if node is None:
                continue
            size = node.type.get_size()
            if size is not None and size > SBO_BYTES:
                loc = node.location
                self.report(
                    "capture-size", loc.file.name, loc.line,
                    f"lambda scheduled into sim::SimCallback has closure size "
                    f"{size} bytes (> {SBO_BYTES}-byte SBO): every scheduled "
                    f"event pays a heap allocation; shrink the capture",
                )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def enumerate_files(root: Path, compdb: Path | None) -> list[Path]:
    """The analysis set: src/ sources and headers. When a compile database
    is supplied its TU list seeds the set (so generated or out-of-tree TUs
    are honoured), with headers unioned in by walking src/."""
    files: set[Path] = set()
    src = root / "src"
    if compdb is not None and compdb.is_file():
        try:
            entries = json.loads(compdb.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            entries = []
        for entry in entries:
            p = Path(entry.get("directory", ".")) / entry.get("file", "")
            try:
                p.resolve().relative_to(src.resolve())
            except ValueError:
                continue
            files.add(p.resolve())
    for p in src.rglob("*"):
        if p.suffix in (".cpp", ".hpp", ".cc", ".h"):
            files.add(p.resolve())
    return sorted(files)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="exit status: 0 clean, 1 findings, 2 usage/environment error",
    )
    parser.add_argument("-p", "--compdb", type=Path, default=None,
                        help="build dir or compile_commands.json path "
                             "(default: ./build if present)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "tokens"),
                        default="auto",
                        help="auto prefers libclang when importable, else the "
                             "built-in tokens frontend")
    parser.add_argument("--passes", default=",".join(PASSES),
                        help=f"comma-separated subset of: {', '.join(PASSES)}")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the pass names and exit")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="restrict analysis to these files (default: src/)")
    args = parser.parse_args()

    if args.list_passes:
        for name in PASSES:
            print(name)
        return 0

    enabled = {p.strip() for p in args.passes.split(",") if p.strip()}
    unknown = enabled - set(PASSES)
    if unknown:
        print(f"vstream_ast_lint: unknown pass(es): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    root = args.root.resolve()
    if not root.is_dir():
        print(f"vstream_ast_lint: root {root} is not a directory", file=sys.stderr)
        return 2

    compdb = args.compdb
    if compdb is None and (root / "build" / "compile_commands.json").is_file():
        compdb = root / "build" / "compile_commands.json"
    if compdb is not None and compdb.is_dir():
        compdb = compdb / "compile_commands.json"

    if args.paths:
        files = []
        for p in args.paths:
            if not p.exists():
                print(f"vstream_ast_lint: no such file: {p}", file=sys.stderr)
                return 2
            if p.suffix in (".cpp", ".hpp", ".cc", ".h"):
                files.append(p.resolve())
    else:
        files = enumerate_files(root, compdb)
    if not files:
        print("vstream_ast_lint: no input files", file=sys.stderr)
        return 2

    frontend_used = "tokens"
    findings: list[Finding] = []
    if args.frontend in ("auto", "libclang"):
        try:
            if compdb is None or not compdb.is_file():
                raise RuntimeError("no compile_commands.json (pass -p <builddir>)")
            lc = LibclangFrontend(compdb.parent, enabled)
            scope_root = (root / "src") if not args.paths else Path("/")
            findings = lc.run(files, scope_root.resolve())
            # Headers never appear as TUs; run the tokens frontend over any
            # explicitly-listed header so fixture headers are still covered.
            for path in files:
                if path.suffix in (".hpp", ".h") and args.paths:
                    text = path.read_text(encoding="utf-8", errors="replace")
                    findings.extend(TokenFrontend(path, text, enabled).run())
            frontend_used = "libclang"
        except RuntimeError as exc:
            if args.frontend == "libclang":
                print(f"vstream_ast_lint: {exc}", file=sys.stderr)
                return 2
            frontend_used = "tokens"

    if frontend_used == "tokens":
        for path in files:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                print(f"vstream_ast_lint: cannot read {path}: {exc}", file=sys.stderr)
                return 2
            findings.extend(TokenFrontend(path, text, enabled).run())

    findings.sort(key=lambda f: (str(f.path), f.line, f.pass_name))
    for finding in findings:
        print(finding.render(root))
    print(f"vstream_ast_lint[{frontend_used}]: {len(files)} files, "
          f"{len(findings)} finding(s)")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
