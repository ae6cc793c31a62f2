// repro-lint: the repository's own static-analysis gate.
//
// Complements the compiler gates (-Wthread-safety, clang-tidy) with
// repo-specific rules no generic tool enforces:
//
//   header/self-contained  every public header under include/ compiles
//                          standalone (caught: missing includes that
//                          only work because of lucky include order)
//   ban/rand               std::rand / rand() — use repro::common::Rng,
//                          which is seedable and deterministic
//   ban/wall-clock         std::time / system_clock / gettimeofday —
//                          wall-clock reads break replayability; use
//                          steady_clock for durations, sample times
//                          come from the simulator
//   ban/throw-in-sink      explicit throw in src/online + src/engine:
//                          exceptions escaping a sample sink kill the
//                          monitored run (hardened paths must degrade)
//   num/float-eq           ==/!= against floating literals in the math
//                          and core model layers (exact-zero guards are
//                          suppressed explicitly, not silently)
//   ensure/message         every REPRO_ENSURE carries a non-empty
//                          message (the expression alone is not a
//                          diagnosis)
//   todo/owner             TODO comments name an owner: TODO(name): ...
//   lock/cross-shard       in the shard layer (online/shard.{cpp,hpp}):
//                          no ModelEngine mutation (try_apply /
//                          register_process — revisions flow through
//                          the coordinator's single door) and no lock
//                          acquisition that reaches through another
//                          object (a shard may lock only its own
//                          mutex_; shard → other-shard locking is the
//                          deadlock shape DESIGN 5.7 bans)
//   io/unchecked-write     in the durability layer (journal, checkpoint,
//                          durable_file, sharded_pipeline): the bool
//                          result of write_all/sync/sync_data/truncate
//                          must be consumed — a discarded short write or
//                          failed fsync silently voids the crash-safety
//                          contract (ISSUE 8)
//   atomic/explicit-order  every atomic load/store/exchange/fetch_*/
//                          compare_exchange_* in src/ + include/ passes
//                          an explicit std::memory_order — seq_cst by
//                          default hides the author's intent and costs
//                          a fence on the ring/snapshot hot paths
//   atomic/relaxed-justified
//                          every memory_order_relaxed use carries an
//                          adjacent "// relaxed: ..." comment (same
//                          line or the comment block directly above)
//                          saying why relaxed is sufficient
//
// Lock order is not a lint rule: every common::Mutex is constructed
// with a LockRank, and Mutex::lock() aborts on any acquisition that is
// not strictly above the ranks the thread already holds (DESIGN 5.9).
//
// Modes beyond the scan:
//   --coverage             annotation-coverage ratchet: counts mutable
//                          fields of concurrent classes (any class
//                          declaring a Mutex member) that lack
//                          REPRO_GUARDED_BY / REPRO_PT_GUARDED_BY /
//                          REPRO_CONST_AFTER_INIT / REPRO_THREAD_CONFINED
//                          and compares against a checked-in baseline CI
//                          only lets decrease.
//
// Output is machine-readable, one finding per line:
//   <file>:<line>: <rule-id>: <message>
// or, with --format=json, one JSON object per line:
//   {"file":"...","line":N,"rule":"...","message":"..."}
// Known-intentional sites live in tools/repro_lint.supp as
// "<rule-id> <path-substring>" lines (paths are normalized: leading
// "./" and an absolute --root prefix are stripped before matching, so
// the same file works from the repo root and the build tree).
// Exit status: 0 = clean, 1 = unsuppressed findings, 2 = usage error.
//
// Usage:
//   repro_lint --root <repo> [--supp <file>] [--compiler <cc>]
//              [--no-compile] [--format=text|json]
//   repro_lint --root <repo> --coverage
//              [--baseline <coverage_baseline.txt>] [--format=...]
//   repro_lint --self-test   # red-then-green for every rule: seeded
//                            # violations detected, clean twins quiet
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // repo-relative, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct Suppression {
  std::string rule;
  std::string path_substring;
  mutable bool used = false;
};

struct Options {
  fs::path root = ".";
  fs::path supp;
  fs::path baseline;
  std::string compiler = "g++";
  bool compile_headers = true;
  bool coverage = false;
  bool json = false;
};

/// Replaces comments and the *contents* of string/char literals with
/// spaces (quotes and newlines survive), so textual rules never fire
/// on prose. Handles //, /* */, "...", '...', and basic R"(...)".
std::string blank_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kStr, kChar, kRaw };
  State state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   in[i - 1])) &&
                               in[i - 1] != '_'))) {
          state = State::kRaw;
          ++i;  // keep R and the opening quote
        } else if (c == '"') {
          state = State::kStr;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n')
          state = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kStr:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        // Plain R"( ... )" only — the repo does not use custom
        // delimiters; the contents are blanked like a normal string.
        if (c == ')' && next == '"') {
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Finds `needle` at identifier boundaries in `code` (an occurrence
/// is rejected when an identifier character precedes it or follows
/// it). `needle` may end in '(' to demand a call.
void find_identifier(const std::string& code, const std::string& file,
                     std::string_view needle, std::string_view rule,
                     std::string_view message, std::vector<Finding>& out) {
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool right_ok = needle.back() == '(' || end >= code.size() ||
                          !is_ident_char(code[end]);
    if (left_ok && right_ok)
      out.push_back({file, line_of(code, pos), std::string(rule),
                     std::string(message)});
    pos = end;
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// `token` present in `s` at identifier boundaries (exact case).
bool has_token(const std::string& s, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool is_float_literal_at(const std::string& code, std::size_t pos,
                         bool backwards) {
  // Forwards: digits '.' digits. Backwards: scan left past the literal.
  if (backwards) {
    std::size_t i = pos;  // pos = index just past the literal candidate
    bool digits = false, dot = false;
    while (i > 0) {
      const char c = code[i - 1];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digits = true;
        --i;
      } else if (c == '.' && !dot) {
        dot = true;
        --i;
      } else {
        break;
      }
    }
    return digits && dot;
  }
  std::size_t i = pos;
  bool digits = false;
  while (i < code.size() &&
         std::isdigit(static_cast<unsigned char>(code[i]))) {
    digits = true;
    ++i;
  }
  if (i >= code.size() || code[i] != '.') return false;
  ++i;
  while (i < code.size() &&
         std::isdigit(static_cast<unsigned char>(code[i]))) {
    digits = true;
    ++i;
  }
  return digits;
}

/// ==/!= where one side is a floating literal (0.0, 1e-9 is not
/// matched — only dotted literals, the repo's idiom for exact checks).
void check_float_eq(const std::string& code, const std::string& file,
                    std::vector<Finding>& out) {
  for (std::size_t pos = 0; pos + 1 < code.size(); ++pos) {
    if ((code[pos] != '=' && code[pos] != '!') || code[pos + 1] != '=')
      continue;
    if (pos > 0 && (code[pos - 1] == '=' || code[pos - 1] == '!' ||
                    code[pos - 1] == '<' || code[pos - 1] == '>'))
      continue;
    if (pos + 2 < code.size() && code[pos + 2] == '=') continue;
    // Right side: skip spaces and an optional sign.
    std::size_t r = pos + 2;
    while (r < code.size() && code[r] == ' ') ++r;
    if (r < code.size() && code[r] == '-') ++r;
    // Left side: skip spaces.
    std::size_t l = pos;
    while (l > 0 && code[l - 1] == ' ') --l;
    if (is_float_literal_at(code, r, /*backwards=*/false) ||
        is_float_literal_at(code, l, /*backwards=*/true)) {
      out.push_back(
          {file, line_of(code, pos), "num/float-eq",
           "exact floating-point comparison; use a tolerance or add a "
           "suppression if the exact check is intentional"});
      ++pos;
    }
  }
}

/// Hard-coded clock literals — a dotted-mantissa gigahertz constant
/// like 2.4e9 (ISSUE 10). Clocks must be derived from MachineConfig
/// (frequency_of, dvfs_levels) so heterogeneous and DVFS-stepped
/// setups can't silently inherit a stale uniform frequency; the
/// machine presets and the hardware oracle's calibration constants
/// are the declared homes of such numbers and are exempted in the
/// dispatch. Only dotted mantissas are matched: 2e9 and 1e9 style
/// round counts (bytes, rates, instruction budgets) stay legal.
void check_frequency_literal(const std::string& code, const std::string& file,
                             std::vector<Finding>& out) {
  std::size_t pos = 0;
  while (pos < code.size()) {
    if (!std::isdigit(static_cast<unsigned char>(code[pos])) ||
        (pos > 0 &&
         (is_ident_char(code[pos - 1]) || code[pos - 1] == '.'))) {
      ++pos;
      continue;
    }
    const std::size_t start = pos;
    std::size_t i = pos;
    while (i < code.size() &&
           std::isdigit(static_cast<unsigned char>(code[i])))
      ++i;
    pos = i + 1;
    if (i >= code.size() || code[i] != '.') continue;
    ++i;
    bool frac = false;
    while (i < code.size() &&
           std::isdigit(static_cast<unsigned char>(code[i]))) {
      frac = true;
      ++i;
    }
    if (!frac || i >= code.size() || (code[i] != 'e' && code[i] != 'E'))
      continue;
    ++i;
    if (i < code.size() && code[i] == '+') ++i;
    if (i >= code.size() || code[i] != '9') continue;
    ++i;
    // Token boundary: 2.4e95 or a literal suffix is not a gigahertz.
    if (i < code.size() && (is_ident_char(code[i]) || code[i] == '.'))
      continue;
    out.push_back({file, line_of(code, start), "num/frequency-literal",
                   "hard-coded clock literal; derive the frequency from "
                   "MachineConfig (frequency_of, dvfs_levels) or a preset "
                   "instead of spelling a gigahertz constant"});
    pos = i;
  }
}

/// REPRO_ENSURE(cond, "message"): ≥ 2 top-level arguments and the last
/// one contains a non-empty string literal. Parses balanced parens on
/// the blanked text (so parens in strings don't confuse it) but reads
/// the message from the raw text.
void check_ensure_messages(const std::string& code, const std::string& raw,
                           const std::string& file,
                           std::vector<Finding>& out) {
  static constexpr std::string_view kMacro = "REPRO_ENSURE";
  std::size_t pos = 0;
  while ((pos = code.find(kMacro, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += kMacro.size();
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    // Skip the macro's own definition (#define REPRO_ENSURE(...)).
    const std::size_t bol = code.rfind('\n', at) + 1;  // npos+1 == 0
    if (code.find("#define", bol) < at) continue;
    std::size_t i = pos;
    while (i < code.size() && is_space(code[i])) ++i;
    if (i >= code.size() || code[i] != '(') continue;  // the definition
    int depth = 0;
    std::size_t last_comma = std::string::npos;
    std::size_t close = std::string::npos;
    for (; i < code.size(); ++i) {
      if (code[i] == '(')
        ++depth;
      else if (code[i] == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (code[i] == ',' && depth == 1) {
        last_comma = i;
      }
    }
    if (close == std::string::npos) continue;  // unbalanced; compiler's job
    const std::size_t line = line_of(code, at);
    if (last_comma == std::string::npos) {
      out.push_back({file, line, "ensure/message",
                     "REPRO_ENSURE without a message argument"});
      pos = close;
      continue;
    }
    // The last argument must contain "..." with at least one character
    // between the quotes (read from the raw text — contents are
    // blanked in `code`, but offsets line up one to one).
    bool ok = false;
    for (std::size_t j = last_comma; j + 2 < close + 1 && j + 1 < raw.size();
         ++j) {
      if (raw[j] == '"' && raw[j + 1] != '"') {
        ok = true;
        break;
      }
    }
    if (!ok)
      out.push_back({file, line, "ensure/message",
                     "REPRO_ENSURE message is empty; say what went wrong "
                     "and with which value"});
    pos = close;
  }
}

/// lock/cross-shard (ISSUE 7): PipelineShard owns the streaming half
/// only. Engine mutation is the coordinator's single serialized door,
/// and the documented lock order (shard mutex → coordinator mutex →
/// engine builder lock) stays acyclic only if a shard never acquires
/// anything but its own mutex_.
void check_cross_shard(const std::string& code, const std::string& file,
                       std::vector<Finding>& out) {
  find_identifier(code, file, "try_apply", "lock/cross-shard",
                  "engine mutation from shard code; revisions must flow "
                  "through the coordinator's single try_apply door",
                  out);
  find_identifier(code, file, "register_process", "lock/cross-shard",
                  "engine mutation from shard code; registration happens "
                  "in the coordinator's apply path",
                  out);
  // A lock whose constructor argument reaches through another object
  // ('.' or '->') is a foreign-mutex acquisition: a shard may lock
  // only its own mutex_, named directly.
  static constexpr std::string_view kLocks[] = {"MutexLock", "lock_guard",
                                                "unique_lock",
                                                "shared_lock"};
  for (const std::string_view needle : kLocks) {
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      // Accept only "<Lock>[<...>] name (" — template args, whitespace,
      // and one variable name between the class and the open paren.
      std::size_t i = pos;
      while (i < code.size() &&
             (is_space(code[i]) || is_ident_char(code[i]) ||
              code[i] == '<' || code[i] == '>' || code[i] == ':' ||
              code[i] == ',' || code[i] == '&' || code[i] == '*'))
        ++i;
      if (i >= code.size() || code[i] != '(') continue;
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t j = i; j < code.size(); ++j) {
        if (code[j] == '(')
          ++depth;
        else if (code[j] == ')' && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) continue;
      const std::string arg = code.substr(i + 1, close - i - 1);
      if (arg.find("->") != std::string::npos ||
          arg.find('.') != std::string::npos)
        out.push_back(
            {file, line_of(code, at), "lock/cross-shard",
             "lock acquired through another object; a shard may lock "
             "only its own mutex_ (cross-shard locking breaks the "
             "DESIGN 5.7 lock order)"});
    }
  }
}

/// io/unchecked-write (ISSUE 8): in durability code every write/sync
/// primitive returns bool instead of throwing, so the *caller* owns
/// error propagation. A call whose result is discarded — the call is
/// its own statement, or hangs off a bare `if (...)` body — is a
/// short-write/failed-fsync swallowed right where crash safety is
/// decided.
void check_unchecked_write(const std::string& code, const std::string& file,
                           std::vector<Finding>& out) {
  static constexpr std::string_view kCalls[] = {
      "write_all(", "sync(",  "sync_data(", "truncate(",
      "fsync(",     "fdatasync(", "fwrite("};
  for (const std::string_view needle : kCalls) {
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      // Walk left over the receiver chain (obj.call, ptr->call,
      // ns::call) to the start of the whole call expression.
      std::size_t i = at;
      while (i > 0) {
        const char c = code[i - 1];
        if (is_ident_char(c) || c == '.' || c == ':') {
          --i;
        } else if (c == '>' && i >= 2 && code[i - 2] == '-') {
          i -= 2;
        } else {
          break;
        }
      }
      while (i > 0 && is_space(code[i - 1])) --i;
      // What precedes the expression decides whether the result is
      // consumed: an operator/assignment/open-paren/keyword feeds it
      // somewhere; a statement or block boundary (or a closed `if (...)`
      // condition) means it was dropped on the floor.
      const char before = i > 0 ? code[i - 1] : ';';
      if (before == ';' || before == '{' || before == '}' || before == ')')
        out.push_back(
            {file, line_of(code, at), "io/unchecked-write",
             "durability write/sync result discarded; check it and "
             "propagate the failure (a lost short write or failed fsync "
             "here silently voids crash recovery)"});
    }
  }
}

void check_todo_owner(const std::string& raw, const std::string& file,
                      std::vector<Finding>& out) {
  std::size_t pos = 0;
  while ((pos = raw.find("TODO", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 4;
    if (at > 0 && is_ident_char(raw[at - 1])) continue;
    if (pos < raw.size() && is_ident_char(raw[pos])) continue;
    const bool owned = pos < raw.size() && raw[pos] == '(' &&
                       pos + 1 < raw.size() && raw[pos + 1] != ')';
    if (!owned)
      out.push_back({file, line_of(raw, at), "todo/owner",
                     "TODO without an owner; write TODO(name): ..."});
  }
}

/// atomic/explicit-order + atomic/relaxed-justified (ISSUE 9).
///
/// The ring/snapshot hot paths carry ~96 hand-written memory_order
/// arguments; these two rules keep them reviewable. explicit-order:
/// every atomic member-function call (.load / ->store / .fetch_add /
/// .compare_exchange_* / .exchange) must name a std::memory_order —
/// the seq_cst default both hides intent and pays an unneeded fence.
/// relaxed-justified: each memory_order_relaxed use carries an
/// adjacent "// relaxed: ..." comment (same line or the contiguous
/// comment block directly above) explaining why no ordering is needed.
///
/// To keep `.load(` on non-atomic types (e.g. a profile store) out of
/// the blast radius, the explicit-order rule only runs in files that
/// mention atomic<...> at all, and only on calls reached via '.' or
/// '->'.
void check_atomic_orders(const std::string& code, const std::string& raw,
                         const std::string& file,
                         std::vector<Finding>& out) {
  static constexpr std::string_view kOps[] = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong"};
  if (code.find("atomic<") != std::string::npos ||
      code.find("atomic_") != std::string::npos) {
    for (const std::string_view op : kOps) {
      std::size_t pos = 0;
      while ((pos = code.find(op, pos)) != std::string::npos) {
        const std::size_t at = pos;
        pos += op.size();
        if (at > 0 && is_ident_char(code[at - 1])) continue;
        if (pos < code.size() && is_ident_char(code[pos])) continue;
        // Member call only: preceded by '.' or '->' (std::exchange and
        // free functions are not atomics).
        const bool member =
            (at >= 1 && code[at - 1] == '.') ||
            (at >= 2 && code[at - 2] == '-' && code[at - 1] == '>');
        if (!member) continue;
        std::size_t i = pos;
        while (i < code.size() && is_space(code[i])) ++i;
        if (i >= code.size() || code[i] != '(') continue;
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t j = i; j < code.size(); ++j) {
          if (code[j] == '(')
            ++depth;
          else if (code[j] == ')' && --depth == 0) {
            close = j;
            break;
          }
        }
        if (close == std::string::npos) continue;
        const std::string args = code.substr(i + 1, close - i - 1);
        std::size_t orders = 0;
        std::size_t opos = 0;
        while ((opos = args.find("memory_order", opos)) !=
               std::string::npos) {
          if ((opos == 0 || !is_ident_char(args[opos - 1]))) ++orders;
          opos += 12;
        }
        const bool cmpxchg = starts_with(op, "compare_exchange");
        if (orders == 0)
          out.push_back(
              {file, line_of(code, at), "atomic/explicit-order",
               "atomic " + std::string(op) +
                   " without an explicit std::memory_order; the seq_cst "
                   "default hides intent (and costs a fence on hot "
                   "paths) — spell the order out"});
        else if (cmpxchg && orders < 2)
          out.push_back(
              {file, line_of(code, at), "atomic/explicit-order",
               "compare_exchange with only one memory_order; pass both "
               "the success and failure orders explicitly"});
      }
    }
  }
  // relaxed-justified runs regardless of the atomic<-gate: the token
  // itself is the evidence.
  std::size_t pos = 0;
  std::set<std::size_t> justified_lines;
  while ((pos = code.find("memory_order_relaxed", pos)) !=
         std::string::npos) {
    const std::size_t at = pos;
    pos += 20;
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    if (pos < code.size() && is_ident_char(code[pos])) continue;
    const std::size_t line = line_of(code, at);
    if (justified_lines.count(line)) continue;
    // Look for "relaxed:" inside a // comment on this raw line or the
    // one above.
    auto line_text = [&](std::size_t n) -> std::string {
      std::size_t start = 0;
      for (std::size_t l = 1; l < n && start != std::string::npos; ++l)
        start = raw.find('\n', start) == std::string::npos
                    ? std::string::npos
                    : raw.find('\n', start) + 1;
      if (start == std::string::npos) return {};
      const std::size_t end = raw.find('\n', start);
      return raw.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start);
    };
    // Accept "relaxed:" in a // comment on the op's own line or
    // anywhere in the contiguous comment block directly above it.
    bool ok = false;
    for (std::size_t n = line; n >= 1 && !ok; --n) {
      const std::string text = line_text(n);
      std::size_t first = 0;
      while (first < text.size() && is_space(text[first])) ++first;
      const bool comment_line = text.compare(first, 2, "//") == 0;
      if (n != line && !comment_line) break;
      const std::size_t slashes = text.find("//");
      if (slashes != std::string::npos &&
          text.find("relaxed:", slashes) != std::string::npos)
        ok = true;
      if (n == 1) break;
    }
    if (ok) {
      justified_lines.insert(line);
    } else {
      out.push_back(
          {file, line, "atomic/relaxed-justified",
           "memory_order_relaxed without an adjacent \"// relaxed: "
           "...\" justification; say why unordered access is safe "
           "here (same line or the comment block directly above)"});
    }
  }
}

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string rel_slash(const fs::path& p, const fs::path& root) {
  std::string s = fs::relative(p, root).generic_string();
  return s;
}

bool under(const std::string& rel, std::string_view dir) {
  return starts_with(rel, dir);
}

void scan_file(const fs::path& path, const std::string& rel,
               std::vector<Finding>& out) {
  const auto raw_opt = read_file(path);
  if (!raw_opt) {
    out.push_back({rel, 0, "io/unreadable", "cannot read file"});
    return;
  }
  const std::string& raw = *raw_opt;
  const std::string code = blank_comments_and_strings(raw);

  find_identifier(code, rel, "std::rand", "ban/rand",
                  "std::rand is banned; use repro::common::Rng", out);
  find_identifier(code, rel, "srand", "ban/rand",
                  "srand is banned; use repro::common::Rng", out);
  find_identifier(code, rel, "std::time", "ban/wall-clock",
                  "wall-clock reads break replayability; use "
                  "std::chrono::steady_clock for durations",
                  out);
  find_identifier(code, rel, "system_clock", "ban/wall-clock",
                  "wall-clock reads break replayability; use "
                  "std::chrono::steady_clock for durations",
                  out);
  find_identifier(code, rel, "gettimeofday", "ban/wall-clock",
                  "wall-clock reads break replayability; use "
                  "std::chrono::steady_clock for durations",
                  out);

  if (under(rel, "src/online/") || under(rel, "src/engine/"))
    find_identifier(code, rel, "throw", "ban/throw-in-sink",
                    "explicit throw on a sink/callback path; hardened "
                    "paths must degrade, not unwind the monitored run "
                    "(REPRO_ENSURE for precondition checks is fine)",
                    out);

  if (rel.ends_with("online/shard.cpp") || rel.ends_with("online/shard.hpp"))
    check_cross_shard(code, rel, out);

  if ((under(rel, "src/") || under(rel, "include/")) &&
      (rel.find("journal") != std::string::npos ||
       rel.find("checkpoint") != std::string::npos ||
       rel.find("durable_file") != std::string::npos ||
       rel.find("sharded_pipeline") != std::string::npos))
    check_unchecked_write(code, rel, out);

  if (under(rel, "src/math/") || under(rel, "src/core/") ||
      under(rel, "include/repro/math/") || under(rel, "include/repro/core/"))
    check_float_eq(code, rel, out);

  // Exempt homes of legitimate gigahertz-scale constants: the machine
  // presets (the single source of clock truth) and the hardware power
  // oracle (per-second rate saturations, calibration data not clocks).
  if (rel != "src/sim/machine.cpp" && rel != "include/repro/sim/machine.hpp" &&
      rel != "src/power/oracle.cpp")
    check_frequency_literal(code, rel, out);

  if (under(rel, "src/") || under(rel, "include/"))
    check_atomic_orders(code, raw, rel, out);

  check_ensure_messages(code, raw, rel, out);
  check_todo_owner(raw, rel, out);
}

// ---------------------------------------------------------------------------
// Concurrency model: a whole-tree scan over src/ + include/ that finds
// the classes declaring a common::Mutex member, the raw material for
// the --coverage ratchet. This is a textual scanner, not a parser: it
// understands braces, class/namespace scopes, and the repo's own idiom
// of common::Mutex members. Lock order is not modeled here; every
// Mutex carries a LockRank checked at run time (repro/common/mutex.hpp).
// ---------------------------------------------------------------------------

struct ClassRegion {
  std::string qual;  // class path, namespaces stripped
  std::string file;
  std::size_t open = 0;   // offset of '{'
  std::size_t close = 0;  // offset of matching '}'
};

struct FileModel {
  std::string rel;
  std::string code;  // blanked
};

struct ConcurrencyModel {
  std::vector<FileModel> files;
  std::vector<ClassRegion> classes;
  std::set<std::string> concurrent;  // class quals with a mutex member
};

/// Matching ')'→'(' (or '}'→'{') scanning left on blanked text.
std::size_t match_open(const std::string& code, std::size_t close_pos,
                       char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = close_pos + 1; i-- > 0;) {
    if (code[i] == close_c)
      ++depth;
    else if (code[i] == open_c && --depth == 0)
      return i;
  }
  return std::string::npos;
}

std::string join_path(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (p.empty()) continue;
    if (!out.empty()) out += "::";
    out += p;
  }
  return out;
}

/// One file's contribution to the concurrency model. `code` must be
/// blanked.
void scan_model_file(const std::string& rel, const std::string& code,
                     ConcurrencyModel& model) {
  model.files.push_back({rel, code});

  // Forward brace matching.
  std::vector<std::size_t> close_of(code.size(), std::string::npos);
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '{') stack.push_back(i);
      else if (code[i] == '}' && !stack.empty()) {
        close_of[stack.back()] = i;
        stack.pop_back();
      }
    }
  }

  struct Scope {
    char kind;  // 'n'amespace, 'c'lass, 'b'lock (functions included)
    std::string name;
    std::size_t close = 0;
  };
  std::vector<Scope> scopes;
  bool pending_class = false, pending_ns = false, pending_enum = false;
  std::string pending_name;
  int paren_depth = 0;
  std::string last_word;

  auto class_path = [&]() {
    std::vector<std::string> parts;
    for (const Scope& s : scopes)
      if (s.kind == 'c') parts.push_back(s.name);
    return join_path(parts);
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    // Pop finished scopes before processing the char at their close.
    while (!scopes.empty() && i == scopes.back().close) scopes.pop_back();
    if (c == '(') { ++paren_depth; continue; }
    if (c == ')') { if (paren_depth > 0) --paren_depth; continue; }
    if (c == ';') {
      pending_class = pending_ns = pending_enum = false;
      continue;
    }
    if (c == '}') { last_word.clear(); continue; }
    if (c == '{') {
      const std::size_t close =
          close_of[i] == std::string::npos ? code.size() : close_of[i];
      if (pending_ns) {
        scopes.push_back({'n', pending_name, close});
      } else if (pending_class) {
        scopes.push_back({'c', pending_name, close});
        model.classes.push_back({class_path(), rel, i, close});
      } else {
        scopes.push_back({'b', "", close});
      }
      pending_class = pending_ns = pending_enum = false;
      last_word.clear();
      continue;
    }
    if (!is_ident_char(c)) continue;
    if (i > 0 && is_ident_char(code[i - 1])) continue;  // mid-identifier
    std::size_t e = i;
    while (e < code.size() && is_ident_char(code[e])) ++e;
    const std::string word = code.substr(i, e - i);
    // Previous non-space char, for template-parameter "class" detection.
    std::size_t pv = i;
    while (pv > 0 && is_space(code[pv - 1])) --pv;
    const char prev_c = pv > 0 ? code[pv - 1] : '\0';

    if (word == "namespace") {
      pending_ns = true;
      pending_name.clear();
      pending_class = pending_enum = false;
    } else if (word == "enum") {
      pending_enum = true;
    } else if ((word == "class" || word == "struct") &&
               prev_c != '<' && prev_c != ',' && last_word != "enum") {
      std::size_t k = e;
      while (k < code.size() && is_space(code[k])) ++k;
      std::size_t ne = k;
      while (ne < code.size() && is_ident_char(code[ne])) ++ne;
      pending_class = true;
      pending_name = code.substr(k, ne - k);
      pending_ns = false;
    } else if (word == "Mutex" && paren_depth == 0 && prev_c != '<') {
      // A member declaration "common::Mutex name_{rank};".
      std::size_t k = e;
      while (k < code.size() && is_space(code[k])) ++k;
      std::size_t ne = k;
      while (ne < code.size() && is_ident_char(code[ne])) ++ne;
      const std::string cls = class_path();
      if (ne > k && !cls.empty() && !(scopes.empty() && pending_class)) {
        const std::string member = code.substr(k, ne - k);
        if (member != "const" && member != "mutable")
          model.concurrent.insert(cls);
      }
    }
    last_word = word;
    i = e - 1;
  }
}

// ---------------------------------------------------------------------------
// Annotation-coverage ratchet (--coverage).
// ---------------------------------------------------------------------------

struct CoverageReport {
  std::size_t unguarded_fields = 0;
  std::vector<Finding> details;
};

std::string trim_copy(std::string s) {
  while (!s.empty() && is_space(s.front())) s.erase(s.begin());
  while (!s.empty() && is_space(s.back())) s.pop_back();
  return s;
}

std::string first_token(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  std::size_t e = i;
  while (e < s.size() && is_ident_char(s[e])) ++e;
  return s.substr(i, e - i);
}

/// Classifies one class-body statement (text up to the ';' or the
/// opening '{' of an inline body / brace initializer) and, when it is
/// a mutable unannotated field of a concurrent class, records an
/// unguarded-field coverage gap.
void classify_member(const std::string& code, const std::string& stmt_raw,
                     std::size_t stmt_start, const ClassRegion& cr,
                     const std::string& rel, CoverageReport& rep) {
  std::string t = trim_copy(stmt_raw);
  // Strip leading access labels ("public:" etc, possibly stacked).
  for (bool stripped = true; stripped;) {
    stripped = false;
    for (const char* label : {"public", "private", "protected"}) {
      const std::size_t n = std::strlen(label);
      if (starts_with(t, label) &&
          (t.size() == n || !is_ident_char(t[n]))) {
        std::size_t i = n;
        while (i < t.size() && is_space(t[i])) ++i;
        if (i < t.size() && t[i] == ':' &&
            (i + 1 >= t.size() || t[i + 1] != ':')) {
          t = trim_copy(t.substr(i + 1));
          stripped = true;
        }
      }
    }
  }
  if (t.empty()) return;
  static const std::set<std::string> kSkipFirst = {
      "using",   "typedef",  "friend",   "static", "template",
      "enum",    "class",    "struct",   "public", "private",
      "protected", "explicit", "virtual", "operator", "inline",
      "constexpr"};
  if (kSkipFirst.count(first_token(t))) return;
  // Truncate at a top-level '=' (default member init); "operator=" and
  // comparison spellings are not assignments.
  {
    int pd = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const char c = t[i];
      if (c == '(') ++pd;
      else if (c == ')') --pd;
      else if (c == '=' && pd == 0) {
        const char prev = i > 0 ? t[i - 1] : '\0';
        const char next = i + 1 < t.size() ? t[i + 1] : '\0';
        if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
            next == '=')
          continue;
        if (i >= 8 && t.compare(i - 8, 8, "operator") == 0) continue;
        t = trim_copy(t.substr(0, i));
        break;
      }
    }
  }
  // Strip trailing annotations and function qualifiers, remembering
  // which REPRO_* annotations were present.
  std::set<std::string> ann;
  for (bool again = true; again;) {
    again = false;
    t = trim_copy(t);
    if (t.empty()) return;
    if (t.back() == ')') {
      const std::size_t open = match_open(t, t.size() - 1, '(', ')');
      if (open == std::string::npos) return;
      std::size_t k = open;
      while (k > 0 && is_space(t[k - 1])) --k;
      const std::size_t we = k;
      while (k > 0 && is_ident_char(t[k - 1])) --k;
      const std::string w = t.substr(k, we - k);
      if (starts_with(w, "REPRO_")) {
        ann.insert(w);
        t = t.substr(0, k);
        again = true;
      }
      continue;
    }
    if (is_ident_char(t.back())) {
      std::size_t k = t.size();
      while (k > 0 && is_ident_char(t[k - 1])) --k;
      const std::string w = t.substr(k);
      if (starts_with(w, "REPRO_")) {
        ann.insert(w);
        t = t.substr(0, k);
        again = true;
      } else if (w == "override" || w == "final" || w == "noexcept" ||
                 w == "const") {
        t = t.substr(0, k);
        again = true;
      }
    }
  }
  // Arrays: strip [N] groups so the name is the trailing identifier.
  while (!t.empty() && t.back() == ']') {
    const std::size_t open = match_open(t, t.size() - 1, '[', ']');
    if (open == std::string::npos) return;
    t = trim_copy(t.substr(0, open));
  }
  if (t.empty() || t.back() == ')' || !is_ident_char(t.back()))
    return;  // function declaration / inline body / noise
  std::size_t k = t.size();
  while (k > 0 && is_ident_char(t[k - 1])) --k;
  const std::string name = t.substr(k);
  const std::string type_part = trim_copy(t.substr(0, k));
  if (type_part.empty()) return;  // a lone identifier is not a field
  if (first_token(type_part) == "const") return;
  if (type_part.find('&') != std::string::npos) return;  // reference
  static constexpr std::string_view kSelfSync[] = {
      "Mutex", "CondVar", "once_flag", "atomic", "condition_variable",
      "thread"};
  for (const std::string_view tok : kSelfSync)
    if (has_token(type_part, tok)) return;
  const bool guarded = ann.count("REPRO_GUARDED_BY") ||
                       ann.count("REPRO_PT_GUARDED_BY") ||
                       ann.count("REPRO_CONST_AFTER_INIT") ||
                       ann.count("REPRO_THREAD_CONFINED");
  if (guarded) return;
  std::size_t lead = 0;
  while (lead < stmt_raw.size() && is_space(stmt_raw[lead])) ++lead;
  ++rep.unguarded_fields;
  rep.details.push_back(
      {rel, line_of(code, stmt_start + lead), "coverage/unguarded-field",
       cr.qual + "::" + name +
           " is a mutable field of a concurrent class with no "
           "REPRO_GUARDED_BY / REPRO_CONST_AFTER_INIT / "
           "REPRO_THREAD_CONFINED annotation"});
}

/// Counts mutable fields of concurrent classes (any class declaring a
/// Mutex member) that carry none of REPRO_GUARDED_BY /
/// REPRO_PT_GUARDED_BY / REPRO_CONST_AFTER_INIT / REPRO_THREAD_CONFINED.
/// Fields whose type is itself a synchronization or self-synchronizing
/// primitive (Mutex, CondVar, std::atomic, std::thread, once_flag) are
/// exempt, as are const and reference members.
CoverageReport collect_coverage(const ConcurrencyModel& model) {
  CoverageReport rep;
  for (const FileModel& fm : model.files) {
    for (const ClassRegion& cr : model.classes) {
      if (cr.file != fm.rel || !model.concurrent.count(cr.qual)) continue;
      const std::string& code = fm.code;
      // Walk the class body at depth 0, splitting member statements at
      // ';' and at the close of depth-0 brace groups (inline bodies,
      // brace initializers, nested classes).
      std::size_t stmt_start = cr.open + 1;
      std::size_t i = cr.open + 1;
      // Paren depth: braces and semicolons inside parameter lists
      // (e.g. `EngineOptions options = {}` default arguments) must not
      // terminate the member statement.
      int pd = 0;
      while (i < cr.close && i < code.size()) {
        const char c = code[i];
        if (c == '(') {
          ++pd;
        } else if (c == ')') {
          if (pd > 0) --pd;
        } else if (c == '{' && pd == 0) {
          // Find the matching close within the region.
          int depth = 0;
          std::size_t j = i;
          for (; j < cr.close; ++j) {
            if (code[j] == '{') ++depth;
            else if (code[j] == '}' && --depth == 0) break;
          }
          const std::string head = code.substr(stmt_start, i - stmt_start);
          classify_member(code, head, stmt_start, cr, fm.rel, rep);
          i = j + 1;
          while (i < cr.close && (is_space(code[i]) || code[i] == ';')) ++i;
          stmt_start = i;
          continue;
        } else if (c == ';' && pd == 0) {
          const std::string stmt = code.substr(stmt_start, i - stmt_start);
          classify_member(code, stmt, stmt_start, cr, fm.rel, rep);
          stmt_start = i + 1;
        }
        ++i;
      }
    }
  }
  return rep;
}

bool model_file_eligible(const std::string& rel) {
  if (!(under(rel, "src/") || under(rel, "include/"))) return false;
  // The wrappers define the vocabulary; they are not users of it.
  if (rel.ends_with("common/mutex.hpp")) return false;
  if (rel.ends_with("common/thread_annotations.hpp")) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Output, suppressions, baseline.
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_finding(const Finding& f, bool json) {
  if (json)
    std::printf("{\"file\":\"%s\",\"line\":%zu,\"rule\":\"%s\","
                "\"message\":\"%s\"}\n",
                json_escape(f.file).c_str(), f.line,
                json_escape(f.rule).c_str(),
                json_escape(f.message).c_str());
  else
    std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
}

/// Normalizes a suppression path substring (or an invocation path) so
/// the same tools/repro_lint.supp works from the repo root and the
/// build tree: leading "./" segments are stripped, and an absolute
/// path under --root is rewritten repo-relative.
std::string normalize_supp_path(std::string s, const fs::path& root) {
  while (starts_with(s, "./")) s.erase(0, 2);
  if (!s.empty() && s.front() == '/') {
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(root, ec);
    std::string prefix = ec ? root.generic_string() : canon.generic_string();
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    if (starts_with(s, prefix)) s.erase(0, prefix.size());
  }
  return s;
}

std::vector<Suppression> load_suppressions(const fs::path& file,
                                           const fs::path& root,
                                           bool& config_error) {
  std::vector<Suppression> supp;
  if (file.empty()) return supp;
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "repro-lint: cannot read suppression file %s\n",
                 file.string().c_str());
    config_error = true;
    return supp;
  }
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    std::string rule, path;
    if (!(ss >> rule)) continue;  // blank
    if (!(ss >> path)) {
      std::fprintf(stderr,
                   "repro-lint: %s:%zu: suppression needs \"<rule> "
                   "<path-substring>\"\n",
                   file.string().c_str(), n);
      config_error = true;
      continue;
    }
    supp.push_back({rule, normalize_supp_path(path, root), false});
  }
  return supp;
}

bool load_baseline(const fs::path& file, std::size_t& unguarded) {
  std::ifstream in(file);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if ((ls >> key) && key == "unguarded_fields" && (ls >> unguarded))
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// --self-test: every rule red-then-green, one table row per rule.
// ---------------------------------------------------------------------------

struct SelfTestRow {
  const char* label;   // printed
  const char* rel;     // repo-relative path the rule's gate expects
  const char* seeded;  // source carrying want_red violations
  const char* clean;   // twin that must scan clean
  const char* rule;    // rule id counted
  long want_red;
};

/// Per-file rules: write the seeded source under a fake repo layout in
/// the temp dir, run the real scan_file dispatch, count the rule.
long run_row(const fs::path& tmp_root, const SelfTestRow& row,
             const char* content) {
  const fs::path path = tmp_root / row.rel;
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream(path, std::ios::binary) << content;
  std::vector<Finding> all;
  scan_file(path, row.rel, all);
  return std::count_if(all.begin(), all.end(), [&](const Finding& f) {
    return f.rule == row.rule;
  });
}

const SelfTestRow kSelfTestRows[] = {
    {"lock/cross-shard", "src/online/shard.cpp",
     "#include \"repro/online/shard.hpp\"\n"
     "namespace repro::online {\n"
     "void PipelineShard::rogue(engine::ModelEngine& engine,\n"
     "                          PipelineShard& peer) {\n"
     "  common::MutexLock lock(peer.mutex_);\n"
     "  engine.try_apply(engine::Revision::process(0, {}));\n"
     "  engine.register_process({});\n"
     "}\n"
     "}  // namespace repro::online\n",
     "#include \"repro/online/shard.hpp\"\n"
     "namespace repro::online {\n"
     "void PipelineShard::fine() {\n"
     "  common::MutexLock lock(mutex_);\n"
     "  sink_.deliver(WindowBatch{});\n"
     "}\n"
     "}  // namespace repro::online\n",
     "lock/cross-shard", 3},
    {"io/unchecked-write", "src/online/journal.cpp",
     "#include \"repro/online/journal.hpp\"\n"
     "namespace repro::online {\n"
     "void JournalWriter::rogue(const std::string& framed) {\n"
     "  file_.write_all(framed.data(), framed.size());\n"
     "  file_.sync_data();\n"
     "  if (framed.empty()) file_.truncate(0);\n"
     "}\n"
     "}  // namespace repro::online\n",
     "#include \"repro/online/journal.hpp\"\n"
     "namespace repro::online {\n"
     "bool JournalWriter::fine(const std::string& framed) {\n"
     "  if (!file_.write_all(framed.data(), framed.size())) return false;\n"
     "  const bool cut = framed.empty() ? file_.truncate(0) : true;\n"
     "  return cut && file_.sync_data();\n"
     "}\n"
     "}  // namespace repro::online\n",
     "io/unchecked-write", 3},
    {"atomic/explicit-order", "src/common/counter.cpp",
     "#include <atomic>\n"
     "namespace repro::common {\n"
     "std::atomic<int> pending{0};\n"
     "void bump() {\n"
     "  pending.store(1);\n"
     "  pending.fetch_add(2);\n"
     "}\n"
     "int read_pending() { return pending.load(); }\n"
     "}  // namespace repro::common\n",
     "#include <atomic>\n"
     "namespace repro::common {\n"
     "std::atomic<int> pending{0};\n"
     "void bump() {\n"
     "  pending.store(1, std::memory_order_release);\n"
     "  pending.fetch_add(2, std::memory_order_acq_rel);\n"
     "}\n"
     "int read_pending() {\n"
     "  return pending.load(std::memory_order_acquire);\n"
     "}\n"
     "}  // namespace repro::common\n",
     "atomic/explicit-order", 3},
    {"atomic/relaxed-justified", "src/common/flag.cpp",
     "#include <atomic>\n"
     "namespace repro::common {\n"
     "std::atomic<bool> stop{false};\n"
     "bool poll() {\n"
     "  stop.store(true, std::memory_order_relaxed);\n"
     "  return stop.load(std::memory_order_relaxed);\n"
     "}\n"
     "}  // namespace repro::common\n",
     "#include <atomic>\n"
     "namespace repro::common {\n"
     "std::atomic<bool> stop{false};\n"
     "bool poll() {\n"
     "  // relaxed: monotonic flag, readers tolerate stale false\n"
     "  stop.store(true, std::memory_order_relaxed);\n"
     "  return stop.load(std::memory_order_relaxed);  // relaxed: ditto\n"
     "}\n"
     "}  // namespace repro::common\n",
     "atomic/relaxed-justified", 2},
    {"num/float-eq", "src/math/eq.cpp",
     "namespace repro::math {\n"
     "bool close(double a, double b) { return a == 0.25 || b != 1.5; }\n"
     "}  // namespace repro::math\n",
     "namespace repro::math {\n"
     "bool close(double a, double b) { return a > 0.25 && b < 1.5; }\n"
     "}  // namespace repro::math\n",
     "num/float-eq", 2},
    {"num/frequency-literal", "src/core/freq.cpp",
     "namespace repro::core {\n"
     "double plan() {\n"
     "  const double turbo = 3.2e9;\n"
     "  const double nominal = 2.4e9;\n"
     "  return turbo - nominal + 1.2e9;\n"
     "}\n"
     "}  // namespace repro::core\n",
     "namespace repro::core {\n"
     "double plan(const sim::MachineConfig& m) {\n"
     "  const double budget = 2e9;  // instructions, not a clock\n"
     "  return m.frequency_of(0) + m.dvfs_levels.back() - budget;\n"
     "}\n"
     "}  // namespace repro::core\n",
     "num/frequency-literal", 3},
    {"ensure/message", "src/core/checks.cpp",
     "void f(int n) {\n"
     "  REPRO_ENSURE(n > 0);\n"
     "  REPRO_ENSURE(n < 10, \"\");\n"
     "}\n",
     "void f(int n) {\n"
     "  REPRO_ENSURE(n > 0, \"n must be positive, got negative\");\n"
     "  REPRO_ENSURE(n < 10, \"n out of range\");\n"
     "}\n",
     "ensure/message", 2},
    {"todo/owner", "src/core/notes.cpp",
     "// TODO: tighten this bound\n",
     "// TODO(alice): tighten this bound\n",
     "todo/owner", 1},
};

int run_self_test() {
  const fs::path tmp_root =
      fs::temp_directory_path() / "repro_lint_selftest";
  std::error_code ec;
  fs::remove_all(tmp_root, ec);
  fs::create_directories(tmp_root, ec);
  if (ec) {
    std::fprintf(stderr, "repro-lint: self-test: cannot create %s\n",
                 tmp_root.string().c_str());
    return 2;
  }
  bool failed = false;

  for (const SelfTestRow& row : kSelfTestRows) {
    const long red = run_row(tmp_root, row, row.seeded);
    const long green = run_row(tmp_root, row, row.clean);
    std::fprintf(stderr,
                 "repro-lint: self-test: %-24s seeded -> %ld (want %ld), "
                 "clean -> %ld (want 0)\n",
                 row.label, red, row.want_red, green);
    if (red != row.want_red || green != 0) failed = true;
  }

  // --coverage: an unguarded field is counted, its annotated twin not.
  {
    static constexpr const char* kSeededCov =
        "namespace demo {\n"
        "class Counter {\n"
        " public:\n"
        "  void bump();\n"
        " private:\n"
        "  common::Mutex mu_{common::LockRank::kShard};\n"
        "  long total_;\n"
        "};\n"
        "}  // namespace demo\n";
    static constexpr const char* kCleanCov =
        "namespace demo {\n"
        "class Counter {\n"
        " public:\n"
        "  void bump();\n"
        " private:\n"
        "  common::Mutex mu_{common::LockRank::kShard};\n"
        "  long total_ REPRO_GUARDED_BY(mu_);\n"
        "};\n"
        "}  // namespace demo\n";
    auto coverage_of = [&](const char* src) {
      ConcurrencyModel m;
      scan_model_file("include/demo/counter.hpp",
                      blank_comments_and_strings(src), m);
      return collect_coverage(m).unguarded_fields;
    };
    const std::size_t red = coverage_of(kSeededCov);
    const std::size_t green = coverage_of(kCleanCov);
    std::fprintf(stderr,
                 "repro-lint: self-test: coverage seeded -> %zu unguarded "
                 "(want 1), clean -> %zu (want 0)\n",
                 red, green);
    if (red != 1 || green != 0) failed = true;
  }

  fs::remove_all(tmp_root, ec);
  std::fprintf(stderr, "repro-lint: self-test %s\n",
               failed ? "FAILED" : "passed");
  return failed ? 1 : 0;
}

void check_header_self_contained(const fs::path& header,
                                 const std::string& rel, const Options& opt,
                                 std::vector<Finding>& out) {
  std::string cmd = opt.compiler;
  cmd += " -std=c++20 -fsyntax-only -I";
  cmd += (opt.root / "include").string();
  cmd += " -x c++ ";
  cmd += header.string();
  cmd += " >/dev/null 2>&1";
  if (std::system(cmd.c_str()) != 0)
    out.push_back(
        {rel, 1, "header/self-contained",
         "header does not compile standalone; add the includes it is "
         "borrowing from its includers (repro: " +
             opt.compiler + " -std=c++20 -fsyntax-only -Iinclude " + rel +
             ")"});
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "repro-lint: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root")
      opt.root = value();
    else if (arg == "--supp")
      opt.supp = value();
    else if (arg == "--compiler")
      opt.compiler = value();
    else if (arg == "--no-compile")
      opt.compile_headers = false;
    else if (arg == "--coverage")
      opt.coverage = true;
    else if (arg == "--baseline")
      opt.baseline = value();
    else if (arg == "--format=json")
      opt.json = true;
    else if (arg == "--format=text")
      opt.json = false;
    else if (arg == "--format") {
      const std::string_view v = value();
      if (v == "json")
        opt.json = true;
      else if (v == "text")
        opt.json = false;
      else {
        std::fprintf(stderr, "repro-lint: unknown format %s\n",
                     std::string(v).c_str());
        return 2;
      }
    } else if (arg == "--self-test")
      return run_self_test();
    else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: repro_lint --root <repo> [--supp <file>] "
          "[--compiler <cc>] [--no-compile] [--format=text|json]\n"
          "       repro_lint --root <repo> --coverage "
          "[--baseline <file>] [--format=text|json]\n"
          "       repro_lint --self-test\n");
      return 0;
    } else {
      std::fprintf(stderr, "repro-lint: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (!fs::is_directory(opt.root)) {
    std::fprintf(stderr, "repro-lint: --root %s is not a directory\n",
                 opt.root.string().c_str());
    return 2;
  }
  // Walk the tree once; per-file rules and the concurrency model feed
  // off the same listing.
  static constexpr std::string_view kDirs[] = {
      "include", "src", "tools", "tests", "bench", "examples"};
  std::vector<Finding> findings;
  std::vector<fs::path> headers;
  ConcurrencyModel model;
  for (const std::string_view dir : kDirs) {
    const fs::path base = opt.root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      const std::string ext = p.extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      const std::string rel = rel_slash(p, opt.root);
      // The linter names its own banned identifiers; skip it.
      if (rel.find("repro_lint") != std::string::npos) continue;
      if (!opt.coverage) {
        scan_file(p, rel, findings);
        if (ext == ".hpp" && under(rel, "include/")) headers.push_back(p);
      }
      if (opt.coverage && model_file_eligible(rel)) {
        if (const auto raw = read_file(p))
          scan_model_file(rel, blank_comments_and_strings(*raw), model);
      }
    }
  }

  if (opt.coverage) {
    const CoverageReport rep = collect_coverage(model);
    std::vector<Finding> details = rep.details;
    std::sort(details.begin(), details.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                return a.line < b.line;
              });
    for (const Finding& f : details) print_finding(f, opt.json);
    std::fprintf(stderr, "repro-lint: coverage: unguarded_fields %zu\n",
                 rep.unguarded_fields);
    if (opt.baseline.empty()) return 0;
    std::size_t base_unguarded = 0;
    if (!load_baseline(opt.baseline, base_unguarded)) {
      std::fprintf(stderr,
                   "repro-lint: cannot read baseline %s (want an "
                   "\"unguarded_fields N\" line)\n",
                   opt.baseline.string().c_str());
      return 2;
    }
    if (rep.unguarded_fields > base_unguarded) {
      std::fprintf(stderr,
                   "repro-lint: coverage ratchet FAILED: baseline allows "
                   "unguarded_fields %zu — annotate the new fields "
                   "(REPRO_GUARDED_BY / REPRO_CONST_AFTER_INIT / "
                   "REPRO_THREAD_CONFINED); never raise the baseline\n",
                   base_unguarded);
      return 1;
    }
    if (rep.unguarded_fields < base_unguarded)
      std::fprintf(stderr,
                   "repro-lint: coverage improved past the baseline; "
                   "ratchet %s down to unguarded_fields %zu\n",
                   opt.baseline.string().c_str(), rep.unguarded_fields);
    return 0;
  }

  bool config_error = false;
  const std::vector<Suppression> suppressions =
      load_suppressions(opt.supp, opt.root, config_error);
  if (config_error) return 2;

  if (opt.compile_headers) {
    std::sort(headers.begin(), headers.end());
    for (const fs::path& h : headers)
      check_header_self_contained(h, rel_slash(h, opt.root), opt, findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  std::size_t suppressed = 0;
  std::size_t reported = 0;
  for (const Finding& f : findings) {
    bool skip = false;
    for (const Suppression& s : suppressions) {
      if (s.rule == f.rule &&
          f.file.find(s.path_substring) != std::string::npos) {
        s.used = true;
        skip = true;
      }
    }
    if (skip) {
      ++suppressed;
      continue;
    }
    print_finding(f, opt.json);
    ++reported;
  }
  for (const Suppression& s : suppressions)
    if (!s.used)
      std::fprintf(stderr,
                   "repro-lint: stale suppression \"%s %s\" matched "
                   "nothing; delete it\n",
                   s.rule.c_str(), s.path_substring.c_str());
  std::fprintf(stderr, "repro-lint: %zu finding%s (%zu suppressed)\n",
               reported, reported == 1 ? "" : "s", suppressed);
  return reported == 0 ? 0 : 1;
}
