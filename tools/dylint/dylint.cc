// dylint: the in-tree static invariant checker.
//
// A dependency-free token-level scanner over src/, tests/, and bench/
// that mechanically enforces the three hand-maintained disciplines the
// dynamic layer (gpusim RaceCheck, the chaos soaks) can only test on the
// schedules it happens to exercise.  RaceCheck found the paper's
// eviction displacement window *at runtime*; these rules keep the next
// raw slot store from being writable at all.  docs/analysis.md ("Static
// layer") is the user-facing description.
//
// Rules:
//
//   raw-slot-access   Slot storage (Subtable / stash / handoff ring /
//                     baseline arrays) may only be touched through the
//                     blessed gpusim accessor discipline
//                     (gpusim::Load/Store/StoreRacy/LoadAcquire/
//                     CasKey/StoreSlot* and friends).  Outside the files
//                     that *define* that discipline, any direct
//                     index/deref/atomic op on a slot-storage member —
//                     or a keys_data() raw escape — is a violation.
//
//   tag-discipline    Integrity tags (docs/robustness.md "Silent data
//                     corruption") are maintained as commutative XOR
//                     deltas.  An absolute tag store (.store()/operator=
//                     on a tag array) is only legal on provably unshared
//                     memory, and every such site must carry a justified
//                     suppression.  fetch_xor is always fine.
//
//   registry-sync     The three kill-point registries, the TableStats
//                     and ServerStats counter lists, and the Status
//                     detail-key set must stay set-equal with
//                     docs/robustness.md.  This is the build-time form of
//                     tests/test_kill_points.cc, extended to counters and
//                     detail keys.
//
//   bad-suppression   A `dylint:allow` that names an unknown rule or
//                     lacks a justification string.  Not suppressible.
//
// Suppression syntax (one per comment, quoted justification mandatory):
//
//   raw_thing();  // dylint:allow(raw-slot-access, "why this is safe")
//   // dylint:allow(tag-discipline, "fresh memory: no concurrent writer")
//   next_line_is_covered();
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Configuration: the hand-maintained invariants, as data.

/// Member identifiers that are slot storage somewhere in the tree.  A
/// token-level scanner cannot resolve types, so the contract is
/// name-based: these names mean "slot storage" project-wide, and a new
/// class reusing one for something else should pick a different name.
const std::set<std::string>& SlotStorageMembers() {
  static const std::set<std::string> kMembers = {
      "keys_",       "values_",       "tags_",       "words_",
      "slots_",      "stash_keys_",   "stash_values_",
      "stash_tags_", "stash_state_",
  };
  return kMembers;
}

/// Tag arrays: absolute stores to these are what tag-discipline polices.
const std::set<std::string>& TagArrayMembers() {
  static const std::set<std::string> kMembers = {"tags_", "stash_tags_"};
  return kMembers;
}

/// Files allowed to touch slot storage directly: the files that define
/// the storage and implement the accessor discipline on top of it.
bool IsSlotAccessDefiningFile(const std::string& rel_path) {
  static const char* kAllowed[] = {
      "src/gpusim/racecheck.h",       "src/gpusim/atomics.h",
      "src/dycuckoo/subtable.h",      "src/dycuckoo/dynamic_table.h",
      "src/dycuckoo/handoff_ring.h",  "src/baselines/cudpp_cuckoo.h",
      "src/baselines/cudpp_cuckoo.cc", "src/baselines/megakv.h",
      "src/baselines/megakv.cc",      "src/baselines/slab_hash.h",
      "src/baselines/slab_hash.cc",
  };
  for (const char* a : kAllowed) {
    if (rel_path == a) return true;
  }
  return false;
}

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "raw-slot-access", "tag-discipline", "registry-sync"};
  return kRules;
}

// ---------------------------------------------------------------------------
// Diagnostics.

struct Violation {
  std::string path;  // repo-relative
  size_t line = 0;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// One scanned source file: raw text plus a "code view" with comments and
// string/char literals blanked (structure and line breaks preserved), the
// comment spans (for suppression parsing), and the string literals (for
// registry extraction).

struct StringLiteral {
  size_t offset = 0;  // offset of the opening quote in the text
  size_t line = 0;
  std::string value;  // unescaped-enough: escape sequences kept verbatim
};

struct SourceFile {
  std::string rel_path;
  std::string raw;
  std::string code;  // same length as raw; comments/literals blanked
  std::vector<size_t> line_starts;
  std::vector<std::pair<size_t, size_t>> comment_spans;
  std::vector<StringLiteral> literals;

  size_t LineOf(size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<size_t>(it - line_starts.begin());
  }
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Next non-whitespace offset in `text` at/after `i` (same logical
/// statement: newlines are skipped too).
size_t SkipWs(const std::string& text, size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return i;
}

/// Blanks comments and literals out of `raw`, recording both.
void BuildCodeView(SourceFile* f) {
  const std::string& s = f->raw;
  std::string& out = f->code;
  out.assign(s.size(), ' ');
  f->line_starts.push_back(0);
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') f->line_starts.push_back(i + 1);
  }
  size_t i = 0;
  const size_t n = s.size();
  while (i < n) {
    char c = s[i];
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      size_t start = i;
      while (i < n && s[i] != '\n') ++i;
      f->comment_spans.emplace_back(start, i);
      continue;  // newline handled below
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      size_t start = i;
      i += 2;
      while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') out[i] = '\n';
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      f->comment_spans.emplace_back(start, i);
      continue;
    }
    if (c == '\'' && i > 0 && IsIdentChar(s[i - 1])) {
      // C++14 digit separator (0xD1C0'CC00), not a char literal.
      out[i] = c;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      StringLiteral lit;
      lit.offset = i;
      lit.line = f->LineOf(i);
      out[i] = quote;  // keep the quotes so "(" matching stays sane
      ++i;
      while (i < n && s[i] != quote) {
        if (s[i] == '\\' && i + 1 < n) {
          lit.value.push_back(s[i]);
          lit.value.push_back(s[i + 1]);
          i += 2;
          continue;
        }
        if (s[i] == '\n') break;  // unterminated; tolerate
        lit.value.push_back(s[i]);
        ++i;
      }
      if (i < n && s[i] == quote) {
        out[i] = quote;
        ++i;
      }
      if (quote == '"') f->literals.push_back(std::move(lit));
      continue;
    }
    out[i] = c;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Suppressions.

struct Suppression {
  std::string rule;
  bool justified = false;
  bool whole_line_comment = false;  // applies to the NEXT code line too
  size_t line = 0;
  bool used = false;
};

/// Parses every `dylint:allow(...)` inside comment spans.  Malformed ones
/// become bad-suppression violations immediately.
std::vector<Suppression> ParseSuppressions(const SourceFile& f,
                                           std::vector<Violation>* out) {
  std::vector<Suppression> sups;
  static const std::string kMarker = "dylint:allow(";
  for (const auto& [begin, end] : f.comment_spans) {
    size_t pos = f.raw.find(kMarker, begin);
    if (pos == std::string::npos || pos >= end) continue;
    const size_t line = f.LineOf(pos);
    size_t i = pos + kMarker.size();
    size_t rule_end = i;
    while (rule_end < end && (IsIdentChar(f.raw[rule_end]) ||
                              f.raw[rule_end] == '-')) {
      ++rule_end;
    }
    Suppression sup;
    sup.rule = f.raw.substr(i, rule_end - i);
    sup.line = line;
    // Whole-line comment => covers the following line as well.
    const size_t line_start = f.line_starts[line - 1];
    sup.whole_line_comment =
        SkipWs(f.raw, line_start) == begin;
    if (!KnownRules().count(sup.rule)) {
      out->push_back({f.rel_path, line, "bad-suppression",
                      "dylint:allow names unknown rule '" + sup.rule + "'"});
      continue;
    }
    // Require: , "non-empty justification" )
    size_t j = SkipWs(f.raw, rule_end);
    bool ok = j < end && f.raw[j] == ',';
    if (ok) {
      j = SkipWs(f.raw, j + 1);
      ok = j < end && f.raw[j] == '"';
    }
    if (ok) {
      size_t q = f.raw.find('"', j + 1);
      ok = q != std::string::npos && q < end && q > j + 1;
      if (ok) {
        size_t close = SkipWs(f.raw, q + 1);
        ok = close < end && f.raw[close] == ')';
      }
    }
    if (!ok) {
      out->push_back(
          {f.rel_path, line, "bad-suppression",
           "dylint:allow(" + sup.rule +
               ") must carry a quoted, non-empty justification: "
               "dylint:allow(" + sup.rule + ", \"why this is safe\")"});
      continue;
    }
    sup.justified = true;
    sups.push_back(sup);
  }
  return sups;
}

/// True iff `rule` is suppressed at `line` (same line, or a whole-line
/// comment on the line above).  Marks the suppression used.
bool IsSuppressed(std::vector<Suppression>* sups, const std::string& rule,
                  size_t line) {
  for (auto& s : *sups) {
    if (s.rule != rule) continue;
    if (s.line == line || (s.whole_line_comment && s.line + 1 == line)) {
      s.used = true;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule 1: raw-slot-access.

void CheckRawSlotAccess(const SourceFile& f, std::vector<Suppression>* sups,
                        std::vector<Violation>* out) {
  const bool defining = IsSlotAccessDefiningFile(f.rel_path);
  const std::string& code = f.code;
  for (size_t i = 0; i < code.size();) {
    if (!IsIdentChar(code[i]) ||
        (i > 0 && IsIdentChar(code[i - 1]))) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < code.size() && IsIdentChar(code[end])) ++end;
    const std::string ident = code.substr(i, end - i);
    const size_t line = f.LineOf(i);
    if (!defining && ident == "keys_data") {
      size_t j = SkipWs(code, end);
      if (j < code.size() && code[j] == '(') {
        if (!IsSuppressed(sups, "raw-slot-access", line)) {
          out->push_back(
              {f.rel_path, line, "raw-slot-access",
               "keys_data() hands out raw slot storage; outside its "
               "defining files every access must go through the gpusim "
               "accessor discipline (suppress with a justification if "
               "the raw pointer is the point, as in the RaceCheck "
               "use-after-free regression)"});
        }
      }
      i = end;
      continue;
    }
    if (!defining && SlotStorageMembers().count(ident)) {
      // Direct index, member access, or atomic op on slot storage.
      size_t j = SkipWs(code, end);
      bool access = false;
      if (j < code.size() && code[j] == '[') access = true;
      if (j + 1 < code.size() && code[j] == '-' && code[j + 1] == '>') {
        access = true;
      }
      if (j < code.size() && code[j] == '.') {
        // `.size()` alone is not a slot access; atomic ops and element
        // handling are.
        size_t k = SkipWs(code, j + 1);
        size_t m = k;
        while (m < code.size() && IsIdentChar(code[m])) ++m;
        const std::string member = code.substr(k, m - k);
        access = member == "load" || member == "store" ||
                 member == "exchange" || member == "data" ||
                 member.rfind("fetch_", 0) == 0 ||
                 member.rfind("compare_exchange", 0) == 0;
      }
      if (access && !IsSuppressed(sups, "raw-slot-access", line)) {
        out->push_back(
            {f.rel_path, line, "raw-slot-access",
             "direct access to slot storage '" + ident +
                 "' outside the blessed gpusim::Load/Store/StoreRacy/"
                 "LoadAcquire/CasKey/StoreSlot* discipline and the files "
                 "that define it (docs/analysis.md, \"Static layer\")"});
      }
    }
    i = end;
  }
}

// ---------------------------------------------------------------------------
// Rule 2: tag-discipline.

void CheckTagDiscipline(const SourceFile& f, std::vector<Suppression>* sups,
                        std::vector<Violation>* out) {
  const std::string& code = f.code;
  for (size_t i = 0; i < code.size();) {
    if (!IsIdentChar(code[i]) || (i > 0 && IsIdentChar(code[i - 1]))) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < code.size() && IsIdentChar(code[end])) ++end;
    const std::string ident = code.substr(i, end - i);
    if (!TagArrayMembers().count(ident)) {
      i = end;
      continue;
    }
    const size_t line = f.LineOf(i);
    // Only an *element* access can be a tag write; a bare mention is
    // pointer/container management (allocation, move, nulling out).
    size_t j = SkipWs(code, end);
    if (j >= code.size() || code[j] != '[') {
      i = end;
      continue;
    }
    int depth = 0;
    while (j < code.size()) {
      if (code[j] == '[') ++depth;
      if (code[j] == ']' && --depth == 0) {
        ++j;
        break;
      }
      ++j;
    }
    j = SkipWs(code, j);
    bool absolute = false;
    std::string how;
    if (j < code.size() && code[j] == '.') {
      size_t k = SkipWs(code, j + 1);
      size_t m = k;
      while (m < code.size() && IsIdentChar(code[m])) ++m;
      const std::string member = code.substr(k, m - k);
      if (member == "store" || member == "exchange") {
        absolute = true;
        how = "." + member + "()";
      }
    } else if (j < code.size() && code[j] == '=' &&
               (j + 1 >= code.size() || code[j + 1] != '=')) {
      absolute = true;
      how = "assignment";
    }
    if (absolute && !IsSuppressed(sups, "tag-discipline", line)) {
      out->push_back(
          {f.rel_path, line, "tag-discipline",
           "absolute integrity-tag write (" + how + " on '" + ident +
               "'): tags are maintained as commutative XOR deltas "
               "(fetch_xor); an absolute store is only legal on provably "
               "unshared memory and must carry a justified "
               "dylint:allow(tag-discipline, ...) (docs/robustness.md, "
               "\"Silent data corruption\")"});
    }
    i = end;
  }
}

// ---------------------------------------------------------------------------
// Rule 3: registry-sync.

struct RegistryEntry {
  std::string name;
  std::string path;
  size_t line = 0;
};

/// Extracts the string literals of `array_name[] = { ... }` definitions.
void CollectArrayLiterals(const SourceFile& f, const std::string& array_name,
                          std::vector<RegistryEntry>* out) {
  size_t pos = 0;
  while ((pos = f.code.find(array_name, pos)) != std::string::npos) {
    // Must be a whole identifier token.
    if ((pos > 0 && IsIdentChar(f.code[pos - 1])) ||
        (pos + array_name.size() < f.code.size() &&
         IsIdentChar(f.code[pos + array_name.size()]))) {
      pos += array_name.size();
      continue;
    }
    // Find '{' before the next ';' — a declaration without initializer
    // (e.g. `extern const char* kKillPointNames[];`) has none.
    size_t open = pos;
    while (open < f.code.size() && f.code[open] != '{' &&
           f.code[open] != ';') {
      ++open;
    }
    if (open >= f.code.size() || f.code[open] != '{') {
      pos += array_name.size();
      continue;
    }
    int depth = 0;
    size_t close = open;
    while (close < f.code.size()) {
      if (f.code[close] == '{') ++depth;
      if (f.code[close] == '}' && --depth == 0) break;
      ++close;
    }
    for (const StringLiteral& lit : f.literals) {
      if (lit.offset > open && lit.offset < close) {
        out->push_back({lit.value, f.rel_path, lit.line});
      }
    }
    pos = close;
  }
}

/// Counter sets declared once as X-macro lists (`#define LIST(X) X(a)
/// X(b) ...`), each documented in its own marker section.
struct CounterSet {
  const char* list;     // the list macro's name
  const char* section;  // <!-- dylint:SECTION:begin/end --> in the doc
  const char* what;     // diagnostic label
};
constexpr CounterSet kCounterSets[] = {
    {"DYCUCKOO_TABLE_STATS", "counters", "TableStats counter"},
    {"DYCUCKOO_SERVER_STATS", "server-counters", "ServerStats counter"},
};

/// The name in every `X(name` entry of `#define LIST(X) ...`, where X is
/// whatever parameter name the definition uses.  The list runs to the
/// first line that does not end in a backslash.
void CollectCounterList(const SourceFile& f, const std::string& list,
                        std::vector<RegistryEntry>* out) {
  const std::string def = "#define " + list + "(";
  const size_t at = f.code.find(def);
  if (at == std::string::npos) return;
  const size_t param_end = f.code.find(')', at + def.size());
  if (param_end == std::string::npos) return;
  const std::string entry =
      f.code.substr(at + def.size(), param_end - at - def.size()) + "(";
  size_t line_begin = param_end + 1;
  for (;;) {
    const size_t eol = std::min(f.code.find('\n', line_begin), f.code.size());
    const std::string_view line(f.code.data() + line_begin, eol - line_begin);
    for (size_t i = line.find(entry); i != std::string_view::npos;
         i = line.find(entry, i + 1)) {
      if (i > 0 && IsIdentChar(line[i - 1])) continue;
      const size_t name = i + entry.size();
      size_t end = name;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      if (end == name) continue;
      out->push_back({std::string(line.substr(name, end - name)), f.rel_path,
                      f.LineOf(line_begin + name)});
    }
    const size_t last = line.find_last_not_of(" \t\r");
    if (eol == f.code.size() || last == std::string_view::npos ||
        line[last] != '\\') {
      return;
    }
    line_begin = eol + 1;
  }
}

/// Status detail keys: the first argument of every WithDetail("...") call.
void CollectDetailKeys(const SourceFile& f, std::vector<RegistryEntry>* out) {
  size_t pos = 0;
  static const std::string kCall = "WithDetail";
  while ((pos = f.code.find(kCall, pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(f.code[pos - 1])) {
      pos += kCall.size();
      continue;
    }
    size_t j = SkipWs(f.code, pos + kCall.size());
    pos += kCall.size();
    if (j >= f.code.size() || f.code[j] != '(') continue;
    size_t arg = SkipWs(f.code, j + 1);
    for (const StringLiteral& lit : f.literals) {
      if (lit.offset == arg) {
        out->push_back({lit.value, f.rel_path, lit.line});
        break;
      }
    }
  }
}

/// Kill-point-looking backticked token (same heuristic the runtime test
/// in tests/test_kill_points.cc uses, so the two layers agree).
bool LooksLikeKillPoint(const std::string& tok) {
  static const char* kPrefixes[] = {"wal.", "ckpt.", "mem.", "reshard."};
  bool prefixed = false;
  for (const char* p : kPrefixes) {
    if (tok.rfind(p, 0) == 0) prefixed = true;
  }
  if (!prefixed) return false;
  for (char c : tok) {
    if (!(std::islower(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.')) {
      return false;
    }
  }
  return true;
}

std::set<std::string> BacktickedTokens(const std::string& text, size_t begin,
                                       size_t end) {
  std::set<std::string> toks;
  size_t pos = begin;
  while ((pos = text.find('`', pos)) != std::string::npos && pos < end) {
    const size_t close = text.find('`', pos + 1);
    if (close == std::string::npos || close >= end) break;
    toks.insert(text.substr(pos + 1, close - pos - 1));
    pos = close + 1;
  }
  return toks;
}

/// Tokens between `<!-- dylint:NAME:begin -->` / `:end` markers, or
/// nullopt-like empty+false when the markers are absent.
bool MarkedSection(const std::string& doc, const std::string& name,
                   std::set<std::string>* out) {
  const std::string begin_marker = "<!-- dylint:" + name + ":begin -->";
  const std::string end_marker = "<!-- dylint:" + name + ":end -->";
  const size_t b = doc.find(begin_marker);
  const size_t e = doc.find(end_marker);
  if (b == std::string::npos || e == std::string::npos || e < b) return false;
  *out = BacktickedTokens(doc, b + begin_marker.size(), e);
  return true;
}

void DiffSets(const std::string& what,
              const std::map<std::string, RegistryEntry>& registered,
              const std::set<std::string>& documented,
              const std::string& doc_rel_path,
              std::vector<Violation>* out) {
  for (const auto& [name, entry] : registered) {
    if (!documented.count(name)) {
      out->push_back({entry.path, entry.line, "registry-sync",
                      what + " '" + name + "' is defined in code but not "
                      "documented in " + doc_rel_path});
    }
  }
  for (const std::string& name : documented) {
    if (!registered.count(name)) {
      out->push_back({doc_rel_path, 1, "registry-sync",
                      doc_rel_path + " documents " + what + " '" + name +
                          "' but the code does not define it (renamed or "
                          "removed?)"});
    }
  }
}

/// Diffs `registered` against the backticked tokens of one marker section.
void DiffMarkedSection(const std::string& what, const std::string& section,
                       const std::map<std::string, RegistryEntry>& registered,
                       const std::string& doc, const std::string& doc_rel_path,
                       std::vector<Violation>* out) {
  if (registered.empty()) return;
  std::set<std::string> documented;
  if (!MarkedSection(doc, section, &documented)) {
    out->push_back({doc_rel_path, 1, "registry-sync",
                    what + "s exist but " + doc_rel_path +
                        " has no <!-- dylint:" + section +
                        ":begin/end --> registry section"});
    return;
  }
  DiffSets(what, registered, documented, doc_rel_path, out);
}

void CheckRegistrySync(const std::vector<SourceFile>& files,
                       const std::string& doc, bool have_doc,
                       const std::string& doc_rel_path,
                       std::vector<Violation>* out) {
  std::map<std::string, RegistryEntry> kill_points;
  std::map<std::string, RegistryEntry> counters[std::size(kCounterSets)];
  std::map<std::string, RegistryEntry> detail_keys;
  for (const SourceFile& f : files) {
    // Registries are API surface: they live in src/.  Tests exercise the
    // mechanisms with synthetic names (test_status attaches throwaway
    // detail keys), which must not enter the documented set.
    if (f.rel_path.rfind("src/", 0) != 0) continue;
    std::vector<RegistryEntry> entries;
    CollectArrayLiterals(f, "kKillPointNames", &entries);
    CollectArrayLiterals(f, "kReshardKillPointNames", &entries);
    CollectArrayLiterals(f, "kSweepKillPointNames", &entries);
    for (auto& e : entries) kill_points.emplace(e.name, e);
    for (size_t i = 0; i < std::size(kCounterSets); ++i) {
      entries.clear();
      CollectCounterList(f, kCounterSets[i].list, &entries);
      for (auto& e : entries) counters[i].emplace(e.name, e);
    }
    entries.clear();
    CollectDetailKeys(f, &entries);
    for (auto& e : entries) detail_keys.emplace(e.name, e);
  }
  const RegistryEntry* any = nullptr;
  if (!kill_points.empty()) any = &kill_points.begin()->second;
  for (const auto& set : counters) {
    if (any == nullptr && !set.empty()) any = &set.begin()->second;
  }
  if (any == nullptr && !detail_keys.empty()) {
    any = &detail_keys.begin()->second;
  }
  if (any == nullptr) return;
  if (!have_doc) {
    out->push_back({any->path, any->line, "registry-sync",
                    "registries are defined in code but " + doc_rel_path +
                        " does not exist"});
    return;
  }
  if (!kill_points.empty()) {
    std::set<std::string> documented;
    for (const std::string& tok :
         BacktickedTokens(doc, 0, doc.size())) {
      if (LooksLikeKillPoint(tok)) documented.insert(tok);
    }
    DiffSets("kill point", kill_points, documented, doc_rel_path, out);
  }
  for (size_t i = 0; i < std::size(kCounterSets); ++i) {
    DiffMarkedSection(kCounterSets[i].what, kCounterSets[i].section,
                      counters[i], doc, doc_rel_path, out);
  }
  DiffMarkedSection("Status detail key", "details", detail_keys, doc,
                    doc_rel_path, out);
}

// ---------------------------------------------------------------------------
// Driver.

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

int Run(const fs::path& root, std::FILE* report) {
  std::vector<SourceFile> files;
  bool io_error = false;
  for (const char* dir : {"src", "tests", "bench"}) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      // Fixture trees contain deliberate violations; they are scanned by
      // pointing --root at them, never as part of the real tree.
      if (it->is_directory() &&
          it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || !HasSourceExtension(it->path())) continue;
      SourceFile f;
      f.rel_path = fs::relative(it->path(), root).generic_string();
      std::ifstream in(it->path(), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "dylint: cannot read %s\n",
                     it->path().c_str());
        io_error = true;
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      f.raw = buf.str();
      BuildCodeView(&f);
      files.push_back(std::move(f));
    }
  }
  if (io_error) return 2;
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });

  std::vector<Violation> violations;
  for (SourceFile& f : files) {
    std::vector<Suppression> sups = ParseSuppressions(f, &violations);
    CheckRawSlotAccess(f, &sups, &violations);
    CheckTagDiscipline(f, &sups, &violations);
  }

  const fs::path doc_path = root / "docs" / "robustness.md";
  std::string doc;
  bool have_doc = false;
  if (std::ifstream in(doc_path, std::ios::binary); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    doc = buf.str();
    have_doc = true;
  }
  CheckRegistrySync(files, doc, have_doc, "docs/robustness.md", &violations);

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  for (const Violation& v : violations) {
    std::fprintf(report, "%s:%zu: error: [%s] %s\n", v.path.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  std::fprintf(report, "dylint: scanned %zu files, %zu violation%s\n",
               files.size(), violations.size(),
               violations.size() == 1 ? "" : "s");
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: dylint [--root DIR] [--report FILE]\n"
          "Scans DIR/src, DIR/tests, DIR/bench (and DIR/docs/robustness.md\n"
          "for the registry-sync rule).  Rules: raw-slot-access,\n"
          "tag-discipline, registry-sync, bad-suppression.  Suppress with\n"
          "// dylint:allow(<rule>, \"justification\").  Exit 0 clean, 1\n"
          "violations, 2 usage/IO error.\n");
      return 0;
    } else {
      std::fprintf(stderr, "dylint: unknown argument '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "dylint: --root %s is not a directory\n",
                 root.c_str());
    return 2;
  }
  std::FILE* report = stdout;
  std::FILE* opened = nullptr;
  if (!report_path.empty()) {
    opened = std::fopen(report_path.c_str(), "w");
    if (opened == nullptr) {
      std::fprintf(stderr, "dylint: cannot write report to %s\n",
                   report_path.c_str());
      return 2;
    }
    report = opened;
  }
  const int rc = Run(root, report);
  if (opened != nullptr) std::fclose(opened);
  return rc;
}
