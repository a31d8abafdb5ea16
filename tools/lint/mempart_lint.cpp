// mempart_lint — the repo's domain linter.
//
// Generic tools (clang-tidy, compiler warnings) cannot know mempart's
// invariants; this tool does, and the static-analysis CI job runs it as a
// hard gate. Three rules, each born from a real bug class (span coverage of
// the solver/engine facade is mempart_analyze's cross-TU span-coverage):
//
//   raw-arith    In solver directories (any path containing a core/ or
//                pattern/ segment), a naked `%` (or `%=`), or a binary
//                `* + - /` immediately adjacent to a z-value identifier,
//                is a finding. PR 3's fuzzer kept finding exactly this —
//                unchecked arithmetic on transformed values — at runtime;
//                the checked helpers in common/math_util.h (euclid_mod,
//                checked_mul, checked_add, abs_diff_checked) exist so the
//                raw operators never appear in solver code.
//
//   mutex-guard  A Mutex / std::mutex member declared in a class or struct
//                must have at least one sibling member annotated
//                MEMPART_GUARDED_BY(that mutex). An unannotated mutex is
//                invisible to the Clang thread-safety analysis, which
//                silently un-checks everything it guards.
//
//   simd-guard   common/simd.h is the one file allowed to include vendor
//                intrinsic headers (<immintrin.h>, <arm_neon.h>, ...) or
//                spell vendor intrinsics (_mm*, __m128/__m256/__m512).
//                Anywhere else they bypass the scalar/AVX2 runtime dispatch
//                and break non-x86 builds; go through the mempart::simd
//                lane wrappers instead. The AVX2-wide wrapper I64x4 is further
//                restricted to common/simd.h and *_avx2.cpp units — only
//                those are compiled with -mavx2, so naming it in a
//                baseline-ISA TU plants illegal instructions.
//
// Suppression: append `// mempart-lint: allow(<rule>) <reason>` to the
// offending line (or place it alone on the line above). The reason is
// mandatory — an allow() without one is itself a finding (bad-pragma).
// A pragma that no longer suppresses anything (the finding it silenced is
// gone) is reported as stale-pragma: suppressions must not outlive their
// reasons. Neither meta-rule is itself suppressible.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
// The tool is dependency-free by design (standard library only) and is
// pinned by tests/lint/: a fixture corpus with exact finding counts plus a
// zero-findings self-check over the real src/ tree.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  int col = 0;  ///< 1-based column; 0 when the construct has no single column
  std::string rule;
  std::string message;
};

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;
  int col = 0;  ///< 1-based byte column of the token's first character
};

/// One `mempart-lint:` directive extracted from a comment.
struct Pragma {
  int comment_line = 0;   ///< line the comment starts on
  int comment_col = 0;    ///< column the comment starts on
  bool after_code = false;///< true when code precedes the comment on its line
  std::vector<std::string> rules;
  bool has_reason = false;
};

/// One `#include` directive with its header spelling (no angle brackets or
/// quotes), captured for the simd-guard rule.
struct Include {
  std::string header;
  int line = 0;
  int col = 0;
};

struct FileScan {
  std::vector<Token> tokens;
  std::vector<Pragma> pragmas;
  std::vector<Include> includes;
};

const std::set<std::string, std::less<>> kKnownRules = {
    "raw-arith", "mutex-guard", "simd-guard"};

/// Identifiers the raw-arith rule treats as z-values (transformed pattern
/// offsets). Kept deliberately small and documented in
/// docs/STATIC_ANALYSIS.md; extend it when new z spellings appear.
const std::set<std::string, std::less<>> kZIdents = {
    "z", "zs", "zvals", "z_values", "sorted_z"};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses a comment body for a mempart-lint directive.
void scan_comment(std::string_view body, int line, int col, bool after_code,
                  std::vector<Pragma>& out) {
  const std::string_view marker = "mempart-lint:";
  const size_t at = body.find(marker);
  if (at == std::string_view::npos) return;
  size_t pos = at + marker.size();
  while (pos < body.size() && body[pos] == ' ') ++pos;
  const std::string_view allow = "allow(";
  if (body.compare(pos, allow.size(), allow) != 0) return;
  pos += allow.size();
  const size_t close = body.find(')', pos);
  if (close == std::string_view::npos) return;
  Pragma pragma;
  pragma.comment_line = line;
  pragma.comment_col = col;
  pragma.after_code = after_code;
  std::string rule;
  for (size_t i = pos; i <= close; ++i) {
    const char c = i < close ? body[i] : ',';
    if (c == ',' ) {
      while (!rule.empty() && rule.front() == ' ') rule.erase(rule.begin());
      while (!rule.empty() && rule.back() == ' ') rule.pop_back();
      if (!rule.empty()) pragma.rules.push_back(rule);
      rule.clear();
    } else {
      rule += c;
    }
  }
  std::string_view reason = body.substr(close + 1);
  while (!reason.empty() && (reason.front() == ' ' || reason.front() == '\t')) {
    reason.remove_prefix(1);
  }
  pragma.has_reason = !reason.empty();
  out.push_back(pragma);
}

/// Parses one preprocessor directive for an #include target; records the
/// header spelling (without delimiters) for the simd-guard rule.
void scan_directive(std::string_view directive, int line, int col,
                    std::vector<Include>& out) {
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < directive.size() &&
           (directive[pos] == ' ' || directive[pos] == '\t')) {
      ++pos;
    }
  };
  skip_ws();
  if (pos >= directive.size() || directive[pos] != '#') return;
  ++pos;
  skip_ws();
  const std::string_view kw = "include";
  if (directive.compare(pos, kw.size(), kw) != 0) return;
  pos += kw.size();
  skip_ws();
  if (pos >= directive.size()) return;
  const char open = directive[pos];
  if (open != '<' && open != '"') return;
  const char close = open == '<' ? '>' : '"';
  const size_t end = directive.find(close, pos + 1);
  if (end == std::string_view::npos) return;
  out.push_back(
      {std::string(directive.substr(pos + 1, end - pos - 1)), line, col});
}

/// Tokenizes C++ source: comments, string/char literals and preprocessor
/// lines are consumed (not emitted); comments are scanned for pragmas and
/// directives for #include targets.
FileScan tokenize(const std::string& text) {
  FileScan scan;
  size_t i = 0;
  int line = 1;
  size_t line_start = 0;  // byte offset where the current line begins
  bool line_has_token = false;
  const size_t n = text.size();
  auto newline = [&](size_t nl_pos) {
    ++line;
    line_start = nl_pos + 1;
    line_has_token = false;
  };
  auto col_of = [&](size_t pos) {
    return static_cast<int>(pos - line_start) + 1;
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      newline(i);
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Preprocessor directive: consume to end of line, honoring backslash
    // continuations. The only linted construct is the #include target.
    if (c == '#' && !line_has_token) {
      const int directive_line = line;
      const int directive_col = col_of(i);
      std::string directive;
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          newline(i + 1);
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        directive += text[i];
        ++i;
      }
      scan_directive(directive, directive_line, directive_col, scan.includes);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const int comment_col = col_of(i);
      const size_t start = i + 2;
      size_t end = start;
      while (end < n && text[end] != '\n') ++end;
      scan_comment(std::string_view(text).substr(start, end - start), line,
                   comment_col, line_has_token, scan.pragmas);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      const int start_col = col_of(i);
      const bool after_code = line_has_token;
      const size_t start = i + 2;
      size_t end = start;
      while (end + 1 < n && !(text[end] == '*' && text[end + 1] == '/')) {
        if (text[end] == '\n') {
          ++line;
          line_start = end + 1;
        }
        ++end;
      }
      scan_comment(std::string_view(text).substr(start, end - start),
                   start_line, start_col, after_code, scan.pragmas);
      i = std::min(n, end + 2);
      // A block comment ending the line: line_has_token keeps its value;
      // the newline handler resets it.
      continue;
    }
    // String literal (incl. the prefix part of raw strings).
    if (c == '"') {
      // Raw string: look back over an identifier ending in R.
      bool raw = false;
      if (!scan.tokens.empty() && scan.tokens.back().kind == TokKind::kIdent &&
          scan.tokens.back().line == line) {
        const std::string& prev = scan.tokens.back().text;
        if (!prev.empty() && prev.back() == 'R') raw = true;
      }
      if (raw) {
        // R"delim( ... )delim"
        size_t d_end = i + 1;
        while (d_end < n && text[d_end] != '(') ++d_end;
        const std::string delim =
            ")" + text.substr(i + 1, d_end - i - 1) + "\"";
        const size_t close = text.find(delim, d_end);
        const size_t stop = close == std::string::npos ? n : close + delim.size();
        for (size_t k = i; k < stop; ++k) {
          if (text[k] == '\n') {
            ++line;
            line_start = k + 1;
          }
        }
        i = stop;
        continue;
      }
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < n) ++i;
        if (text[i] == '\n') {  // unterminated; stay robust
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      ++i;
      line_has_token = true;
      continue;
    }
    // Char literal. Distinguish from digit separators (1'000'000): a quote
    // directly after a number token's digits is a separator, but separators
    // are consumed inside number scanning below, so a bare ' here is a
    // char literal.
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      ++i;
      line_has_token = true;
      continue;
    }
    if (ident_start(c)) {
      size_t end = i;
      while (end < n && ident_char(text[end])) ++end;
      scan.tokens.push_back(
          {TokKind::kIdent, text.substr(i, end - i), line, col_of(i)});
      i = end;
      line_has_token = true;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i;
      while (end < n && (ident_char(text[end]) || text[end] == '\'' ||
                         ((text[end] == '+' || text[end] == '-') && end > i &&
                          (text[end - 1] == 'e' || text[end - 1] == 'E' ||
                           text[end - 1] == 'p' || text[end - 1] == 'P')))) {
        ++end;
      }
      if (end < n && text[end] == '.') {
        ++end;
        while (end < n && (ident_char(text[end]) ||
                           ((text[end] == '+' || text[end] == '-') &&
                            (text[end - 1] == 'e' || text[end - 1] == 'E')))) {
          ++end;
        }
      }
      scan.tokens.push_back(
          {TokKind::kNumber, text.substr(i, end - i), line, col_of(i)});
      i = end;
      line_has_token = true;
      continue;
    }
    // Punctuation: greedily take multi-char operators we care about.
    static const char* kMulti[] = {"<<=", ">>=", "->*", "...", "::", "->",
                                   "<<",  ">>",  "<=",  ">=",  "==", "!=",
                                   "&&",  "||",  "+=",  "-=",  "*=", "/=",
                                   "%=",  "&=",  "|=",  "^=",  "++", "--"};
    std::string punct(1, c);
    for (const char* m : kMulti) {
      const size_t len = std::char_traits<char>::length(m);
      if (text.compare(i, len, m) == 0) {
        punct = m;
        break;
      }
    }
    scan.tokens.push_back({TokKind::kPunct, punct, line, col_of(i)});
    i += punct.size();
    line_has_token = true;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

class Suppressions {
 public:
  Suppressions(const std::vector<Pragma>& pragmas, const std::string& file,
               std::vector<Finding>& findings)
      : file_(file) {
    for (const Pragma& pragma : pragmas) {
      if (!pragma.has_reason) {
        findings.push_back({file, pragma.comment_line, pragma.comment_col,
                            "bad-pragma",
                            "allow() pragma without a reason — say why the "
                            "suppression is sound"});
        continue;
      }
      bool known = false;
      for (const std::string& rule : pragma.rules) {
        if (kKnownRules.count(rule) != 0) {
          known = true;
          const int target =
              pragma.after_code ? pragma.comment_line : pragma.comment_line + 1;
          allowed_[target].insert(rule);
          entries_.push_back(
              {target, rule, pragma.comment_line, pragma.comment_col});
        }
      }
      if (!known) {
        findings.push_back({file, pragma.comment_line, pragma.comment_col,
                            "bad-pragma",
                            "allow() names no known rule (raw-arith, "
                            "mutex-guard, simd-guard)"});
      }
    }
  }

  /// Consulting an allowance marks it used — after every rule has run,
  /// report_stale() turns the never-used remainder into findings.
  [[nodiscard]] bool allows(int line, const std::string& rule) const {
    const auto it = allowed_.find(line);
    if (it == allowed_.end() || it->second.count(rule) == 0) return false;
    used_.insert({line, rule});
    return true;
  }

  /// Emits a stale-pragma finding for each allowance that suppressed
  /// nothing. Call exactly once, after every rule has run over the file —
  /// an allowance is only provably stale once everything that could have
  /// consulted it has.
  void report_stale(std::vector<Finding>& findings) const {
    for (const Entry& entry : entries_) {
      if (used_.count({entry.target_line, entry.rule}) != 0) continue;
      findings.push_back(
          {file_, entry.comment_line, entry.comment_col, "stale-pragma",
           "allow(" + entry.rule + ") suppresses nothing — no " + entry.rule +
               " finding fires on the line it covers; delete the pragma "
               "(suppressions must not outlive their reasons)"});
    }
  }

 private:
  struct Entry {
    int target_line = 0;  ///< line the allowance covers
    std::string rule;
    int comment_line = 0;  ///< where the pragma itself sits
    int comment_col = 0;
  };

  std::string file_;
  std::map<int, std::set<std::string>> allowed_;
  std::vector<Entry> entries_;
  /// (covered line, rule) pairs that suppressed at least one finding;
  /// mutable because rules consult through a const reference.
  mutable std::set<std::pair<int, std::string>> used_;
};

// ---------------------------------------------------------------------------
// Rule: raw-arith
// ---------------------------------------------------------------------------

bool path_in_solver_dirs(const std::string& path) {
  auto has_segment = [&](std::string_view seg) {
    const std::string a = "/" + std::string(seg) + "/";
    const std::string b = std::string(seg) + "/";
    return path.find(a) != std::string::npos || path.rfind(b, 0) == 0;
  };
  return has_segment("core") || has_segment("pattern");
}

bool is_operand_end(const Token& t) {
  return t.kind == TokKind::kIdent || t.kind == TokKind::kNumber ||
         t.text == ")" || t.text == "]";
}

bool is_operand_start(const Token& t) {
  return t.kind == TokKind::kIdent || t.kind == TokKind::kNumber ||
         t.text == "(";
}

void check_raw_arith(const std::string& file, const std::vector<Token>& toks,
                     const Suppressions& supp, std::vector<Finding>& out) {
  std::set<std::pair<int, std::string>> reported;  // line -> dedup per line
  auto report = [&](int line, int col, const std::string& message) {
    if (supp.allows(line, "raw-arith")) return;
    if (!reported.insert({line, message}).second) return;
    out.push_back({file, line, col, "raw-arith", message});
  };
  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    // (a) Any naked modulo in solver code.
    if (t.text == "%" || t.text == "%=") {
      report(t.line, t.col,
             "naked '" + t.text +
                 "' on solver arithmetic — use euclid_mod() (math_util.h) "
                 "or annotate: // mempart-lint: allow(raw-arith) <reason>");
      continue;
    }
    // (b) Binary arithmetic immediately adjacent to a z-value identifier.
    if (t.kind != TokKind::kIdent || kZIdents.count(t.text) == 0) continue;
    // Forward: optional single subscript, then an operator?
    size_t j = i + 1;
    if (j < n && toks[j].text == "[") {
      int depth = 1;
      ++j;
      while (j < n && depth > 0) {
        if (toks[j].text == "[") ++depth;
        if (toks[j].text == "]") --depth;
        ++j;
      }
    }
    const bool member_access =
        j < n && (toks[j].text == "." || toks[j].text == "->");
    if (!member_access && j < n &&
        (toks[j].text == "*" || toks[j].text == "+" || toks[j].text == "-" ||
         toks[j].text == "/")) {
      if (j + 1 < n && is_operand_start(toks[j + 1])) {
        report(toks[j].line, toks[j].col,
               "unchecked '" + toks[j].text + "' on z-value '" + t.text +
                   "' — use the checked helpers in math_util.h or annotate "
                   "with a reason");
      }
    }
    // Backward: operator directly before the identifier? For '*' the left
    // operand must be a number, ')' or ']' — an identifier there is
    // indistinguishable from a pointer declarator (`Count* z`), so plain
    // `ident * z` is deliberately not matched (documented limitation; the
    // forward check still catches `z * ident`).
    if (i > 0) {
      const Token& op = toks[i - 1];
      const bool star_ok =
          op.text != "*" ||
          (i > 1 && (toks[i - 2].kind == TokKind::kNumber ||
                     toks[i - 2].text == ")" || toks[i - 2].text == "]"));
      if ((op.text == "*" || op.text == "+" || op.text == "-" ||
           op.text == "/") &&
          star_ok && i > 1 && is_operand_end(toks[i - 2]) &&
          toks[i - 2].text != "operator") {
        report(op.line, op.col,
               "unchecked '" + op.text + "' on z-value '" + t.text +
                   "' — use the checked helpers in math_util.h or annotate "
                   "with a reason");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: mutex-guard
// ---------------------------------------------------------------------------

void check_mutex_guard(const std::string& file, const std::vector<Token>& toks,
                       const Suppressions& supp, std::vector<Finding>& out) {
  struct MutexMember {
    std::string name;
    int line = 0;
    int col = 0;
  };
  struct Scope {
    bool is_record = false;
    std::vector<MutexMember> mutexes;
    std::set<std::string> guard_args;
  };
  std::vector<Scope> stack;
  bool record_pending = false;
  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent) {
      if (t.text == "class" || t.text == "struct" || t.text == "union") {
        record_pending = true;
      }
      // Member declaration: [mutable] (Mutex | std::mutex) name ;
      const bool plain_mutex = t.text == "Mutex";
      const bool std_mutex = t.text == "std" && i + 2 < n &&
                             toks[i + 1].text == "::" &&
                             toks[i + 2].text == "mutex";
      if ((plain_mutex || std_mutex) && !stack.empty() &&
          stack.back().is_record) {
        const size_t name_at = i + (std_mutex ? 3 : 1);
        if (name_at + 1 < n && toks[name_at].kind == TokKind::kIdent &&
            toks[name_at + 1].text == ";") {
          stack.back().mutexes.push_back(
              {toks[name_at].text, toks[name_at].line, toks[name_at].col});
        }
      }
      if ((t.text == "MEMPART_GUARDED_BY" || t.text == "MEMPART_PT_GUARDED_BY") &&
          i + 2 < n && toks[i + 1].text == "(" &&
          toks[i + 2].kind == TokKind::kIdent) {
        // Attach to the nearest enclosing record scope.
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->is_record) {
            it->guard_args.insert(toks[i + 2].text);
            break;
          }
        }
      }
      continue;
    }
    if (t.text == "(" || t.text == ")" || t.text == ";" || t.text == "}") {
      if (t.text != "}") record_pending = false;
    }
    if (t.text == "{") {
      Scope scope;
      scope.is_record = record_pending;
      record_pending = false;
      stack.push_back(scope);
      continue;
    }
    if (t.text == "}") {
      if (stack.empty()) continue;
      const Scope scope = stack.back();
      stack.pop_back();
      if (!scope.is_record) continue;
      for (const MutexMember& m : scope.mutexes) {
        if (scope.guard_args.count(m.name) != 0) continue;
        if (supp.allows(m.line, "mutex-guard")) continue;
        out.push_back(
            {file, m.line, m.col, "mutex-guard",
             "mutex member '" + m.name +
                 "' has no MEMPART_GUARDED_BY(" + m.name +
                 ") on the data it protects — the thread-safety analysis "
                 "cannot check an unannotated mutex"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: simd-guard
// ---------------------------------------------------------------------------

/// Vendor intrinsic headers no file but common/simd.h may include.
const std::set<std::string, std::less<>> kIntrinsicHeaders = {
    "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
    "tmmintrin.h", "smmintrin.h", "nmmintrin.h", "wmmintrin.h",
    "x86intrin.h", "x86gprintrin.h", "arm_neon.h",  "arm_sve.h"};

bool path_is_simd_abstraction(const std::string& path) {
  const std::string suffix = "common/simd.h";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool ident_is_vendor_intrinsic(const std::string& text) {
  const auto has_prefix = [&](std::string_view prefix) {
    return text.compare(0, prefix.size(), prefix) == 0;
  };
  return has_prefix("_mm_") || has_prefix("_mm256_") || has_prefix("_mm512_") ||
         has_prefix("__m128") || has_prefix("__m256") || has_prefix("__m512");
}

/// The AVX2-wide lane wrapper may only be named in common/simd.h and in the
/// dedicated `*_avx2.cpp` translation units that are compiled with -mavx2;
/// instantiating it anywhere else emits AVX2 instructions into a TU built
/// for the baseline ISA.
bool path_is_avx2_unit(const std::string& path) {
  const std::string suffix = "_avx2.cpp";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void check_simd_guard(const std::string& file, const FileScan& scan,
                      const Suppressions& supp, std::vector<Finding>& out) {
  if (path_is_simd_abstraction(file)) return;
  for (const Include& inc : scan.includes) {
    if (kIntrinsicHeaders.count(inc.header) == 0) continue;
    if (supp.allows(inc.line, "simd-guard")) continue;
    out.push_back({file, inc.line, inc.col, "simd-guard",
                   "raw <" + inc.header +
                       "> include outside common/simd.h — ISA headers bypass "
                       "the runtime-dispatch tiers; use the mempart::simd "
                       "lane wrappers"});
  }
  std::set<int> reported;  // one finding per line keeps the noise bounded
  for (const Token& t : scan.tokens) {
    if (t.kind != TokKind::kIdent || !ident_is_vendor_intrinsic(t.text)) {
      continue;
    }
    if (supp.allows(t.line, "simd-guard")) continue;
    if (!reported.insert(t.line).second) continue;
    out.push_back({file, t.line, t.col, "simd-guard",
                   "vendor intrinsic '" + t.text +
                       "' outside common/simd.h — use the mempart::simd lane "
                       "wrappers so dispatch and non-x86 builds keep working"});
  }
  if (path_is_avx2_unit(file)) return;
  for (const Token& t : scan.tokens) {
    if (t.kind != TokKind::kIdent || t.text != "I64x4") continue;
    if (supp.allows(t.line, "simd-guard")) continue;
    if (!reported.insert(t.line).second) continue;
    out.push_back({file, t.line, t.col, "simd-guard",
                   "I64x4 outside common/simd.h or a *_avx2.cpp unit — the "
                       "4-lane wrapper compiles to AVX2 instructions, which "
                       "only the -mavx2 kernel TUs may contain"});
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void lint_file(const std::string& path, std::vector<Finding>& findings,
               bool& io_error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "mempart_lint: cannot read " << path << "\n";
    io_error = true;
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const FileScan scan = tokenize(text);
  const Suppressions supp(scan.pragmas, path, findings);
  if (path_in_solver_dirs(path)) {
    check_raw_arith(path, scan.tokens, supp, findings);
  }
  check_mutex_guard(path, scan.tokens, supp, findings);
  check_simd_guard(path, scan, supp, findings);
  // Must run last: an allowance is stale only if no rule above consulted it.
  supp.report_stale(findings);
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

void collect(const std::string& arg, std::vector<std::string>& files,
             bool& io_error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path path(arg);
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> found;
    for (fs::recursive_directory_iterator it(path, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && lintable(it->path())) {
        found.push_back(it->path().generic_string());
      }
    }
    std::sort(found.begin(), found.end());
    files.insert(files.end(), found.begin(), found.end());
    return;
  }
  if (fs::is_regular_file(path, ec)) {
    files.push_back(path.generic_string());
    return;
  }
  std::cerr << "mempart_lint: no such file or directory: " << arg << "\n";
  io_error = true;
}

/// Full JSON string escaping: quote, backslash, and every control character
/// (named escapes for the common ones, \uXXXX for the rest). File paths and
/// messages may contain anything — tabs in source excerpts, em dashes are
/// fine as raw UTF-8, but a stray control byte must not corrupt the report.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Report schema (pinned by tests/lint round-trip parse):
///   [ {"file": str, "line": int, "col": int, "rule": str, "message": str} ]
void write_report(const std::string& path, const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::binary);
  out << "[\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "  {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"col\": " << f.col
        << ", \"rule\": \"" << json_escape(f.rule) << "\", \"message\": \""
        << json_escape(f.message) << "\"}"
        << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

int usage() {
  std::cerr <<
      "usage: mempart_lint [--report <file.json>] [--list-rules] <path>...\n"
      "  Lints mempart sources for repo-specific invariants.\n"
      "  Paths may be files or directories (recursed for .h/.hpp/.cpp/.cc).\n"
      "  Exit: 0 clean, 1 findings, 2 usage or I/O error.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      std::cout << "raw-arith    naked % / z-value arithmetic in core+pattern "
                   "(use math_util.h helpers)\n"
                   "mutex-guard  mutex members need MEMPART_GUARDED_BY on "
                   "their data\n"
                   "simd-guard   vendor intrinsic headers/identifiers belong "
                   "in common/simd.h only (I64x4 also in *_avx2.cpp)\n"
                   "bad-pragma   allow() pragmas must name a rule and give a "
                   "reason (not suppressible)\n"
                   "stale-pragma allow() pragmas that suppress nothing must "
                   "be deleted (not suppressible)\n";
      return 0;
    }
    if (arg == "--report") {
      if (i + 1 >= argc) return usage();
      report_path = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') return usage();
    paths.push_back(arg);
  }
  if (paths.empty()) return usage();

  bool io_error = false;
  std::vector<std::string> files;
  for (const std::string& path : paths) collect(path, files, io_error);

  std::vector<Finding> findings;
  for (const std::string& file : files) lint_file(file, findings, io_error);

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ":" << f.col << ": [" << f.rule
              << "] " << f.message << "\n";
  }
  if (!report_path.empty()) write_report(report_path, findings);
  std::cout << "mempart_lint: " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  if (io_error) return 2;
  return findings.empty() ? 0 : 1;
}
