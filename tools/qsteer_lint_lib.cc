#include "qsteer_lint_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <functional>
#include <utility>
#include <vector>

namespace qsteer {
namespace lint {
namespace {

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// True when `text[pos..]` starts with `word` at a word boundary on both
/// sides.
bool MatchWord(std::string_view text, size_t pos, std::string_view word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  size_t end = pos + word.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

/// Finds `word` at a word boundary anywhere in `text`, optionally requiring
/// an open paren (after whitespace) right behind it.
bool ContainsWordCall(std::string_view text, std::string_view word, bool require_paren) {
  for (size_t pos = text.find(word); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (!MatchWord(text, pos, word)) continue;
    if (!require_paren) return true;
    size_t after = pos + word.size();
    while (after < text.size() && (text[after] == ' ' || text[after] == '\t')) ++after;
    if (after < text.size() && text[after] == '(') return true;
  }
  return false;
}

/// Replaces comments and string/char-literal *contents* with spaces,
/// preserving newlines and column positions, so pattern matching never
/// fires on prose and directives can still be read from the raw text.
std::string StripCommentsAndStrings(std::string_view content) {
  std::string out(content);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim(...)delim"
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' && (i == 0 || !IsIdentChar(content[i - 1]))) {
          size_t paren = content.find('(', i + 2);
          if (paren != std::string_view::npos) {
            raw_delim = ")" + std::string(content.substr(i + 2, paren - i - 2)) + "\"";
            state = State::kRawString;
            for (size_t j = i; j <= paren; ++j) out[j] = ' ';
            i = paren;
          }
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && (i == 0 || !IsIdentChar(content[i - 1]))) {
          // The ident-char guard keeps digit separators (1'000'000) intact.
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < content.size() && next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < content.size() && next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = i; j < i + raw_delim.size(); ++j) out[j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

bool IsBlank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

std::string Trim(std::string_view text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return "";
  size_t end = text.find_last_not_of(" \t\r\n");
  return std::string(text.substr(begin, end - begin + 1));
}

/// Maps a byte offset in a text to its 1-based line number.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text) {
    starts_.push_back(0);
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
  }
  int LineOf(size_t offset) const {
    return static_cast<int>(std::upper_bound(starts_.begin(), starts_.end(), offset) -
                            starts_.begin());
  }

 private:
  std::vector<size_t> starts_;
};

const std::map<std::string, std::string>& RuleNamesById() {
  static const std::map<std::string, std::string> kNames = {
      {"QL001", "random-source"},       {"QL002", "wall-clock"},
      {"QL003", "unordered-iteration"}, {"QL004", "pointer-ordering"},
      {"QL005", "banned-include"},      {"QL006", "bad-suppression"},
      {"QL007", "unchecked-status"},    {"QL008", "lock-order"},
      {"QL009", "serialization-contract"}, {"QL010", "crc-before-trust"},
  };
  return kNames;
}

/// Accepts a rule id ("QL002") or name ("wall-clock"); returns the id, or
/// "" when unrecognized.
std::string NormalizeRule(const std::string& rule) {
  for (const auto& [id, name] : RuleNamesById()) {
    if (rule == id || rule == name) return id;
  }
  return "";
}

struct Directives {
  /// line (1-based) -> rule ids suppressed on that line.
  std::map<int, std::set<std::string>> allow;
  /// Directive problems (QL006) found while parsing.
  std::vector<Finding> findings;
};

/// Parses `// qsteer-lint: allow(<rule>) <justification>` and
/// `// qsteer-lint: sorted <justification>` directives. A directive on a
/// standalone comment line applies to the next line; otherwise to its own.
Directives ParseDirectives(const std::string& path,
                           const std::vector<std::string_view>& raw_lines,
                           const std::vector<std::string_view>& stripped_lines) {
  static constexpr std::string_view kMarker = "qsteer-lint:";
  Directives result;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    size_t marker = raw_lines[i].find(kMarker);
    if (marker == std::string_view::npos) continue;
    int line = static_cast<int>(i) + 1;
    std::string rest = Trim(raw_lines[i].substr(marker + kMarker.size()));
    if (size_t close = rest.find("*/"); close != std::string::npos) {
      rest = Trim(rest.substr(0, close));
    }
    std::string rule_id;
    std::string justification;
    if (rest.rfind("allow(", 0) == 0) {
      size_t close = rest.find(')');
      if (close == std::string::npos) {
        result.findings.push_back({path, line, "QL006", "bad-suppression",
                                   "malformed allow(...) directive: missing ')'"});
        continue;
      }
      rule_id = NormalizeRule(Trim(rest.substr(6, close - 6)));
      if (rule_id.empty()) {
        result.findings.push_back({path, line, "QL006", "bad-suppression",
                                   "allow(...) names an unknown rule"});
        continue;
      }
      justification = Trim(rest.substr(close + 1));
    } else if (rest.rfind("sorted", 0) == 0 &&
               (rest.size() == 6 || !IsIdentChar(rest[6]))) {
      rule_id = "QL003";
      justification = Trim(rest.substr(6));
    } else {
      result.findings.push_back({path, line, "QL006", "bad-suppression",
                                 "unknown qsteer-lint directive (expected allow(<rule>) "
                                 "or sorted)"});
      continue;
    }
    if (justification.empty()) {
      result.findings.push_back(
          {path, line, "QL006", "bad-suppression",
           "suppression without a justification has no effect; explain why the "
           "pattern is safe"});
      continue;
    }
    // A standalone comment line shields the next line; an end-of-line
    // directive shields its own.
    int target = IsBlank(stripped_lines[i]) ? line + 1 : line;
    result.allow[target].insert(rule_id);
  }
  return result;
}

bool PathContains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ---- QL003 support: unordered-container declarations and range-fors ----

/// Names declared in this file as std::unordered_map/std::unordered_set
/// variables or members (template arguments balanced by hand; regex cannot
/// nest). `decl_lines` receives the declaration line of each name.
std::set<std::string> UnorderedContainerNames(std::string_view stripped,
                                              std::map<std::string, int>* decl_lines) {
  std::set<std::string> names;
  for (std::string_view keyword : {"unordered_map", "unordered_set"}) {
    for (size_t pos = stripped.find(keyword); pos != std::string_view::npos;
         pos = stripped.find(keyword, pos + 1)) {
      if (!MatchWord(stripped, pos, keyword)) continue;
      size_t cursor = pos + keyword.size();
      while (cursor < stripped.size() && IsSpace(stripped[cursor])) ++cursor;
      if (cursor >= stripped.size() || stripped[cursor] != '<') continue;
      int depth = 1;
      ++cursor;
      while (cursor < stripped.size() && depth > 0) {
        if (stripped[cursor] == '<') ++depth;
        if (stripped[cursor] == '>') --depth;
        ++cursor;
      }
      if (depth != 0) continue;
      // Skip whitespace and declarator decorations to the declared name.
      while (cursor < stripped.size() &&
             (IsSpace(stripped[cursor]) || stripped[cursor] == '&' || stripped[cursor] == '*')) {
        ++cursor;
      }
      size_t name_begin = cursor;
      while (cursor < stripped.size() && IsIdentChar(stripped[cursor])) ++cursor;
      if (cursor == name_begin) continue;  // e.g. `unordered_map<...>::iterator` or `>;`
      std::string name(stripped.substr(name_begin, cursor - name_begin));
      while (cursor < stripped.size() && IsSpace(stripped[cursor])) ++cursor;
      if (cursor < stripped.size() && stripped[cursor] == '(') continue;  // function decl
      if (name == "const" || name == "final") continue;
      names.insert(name);
      if (decl_lines->find(name) == decl_lines->end()) {
        int line = 1 + static_cast<int>(std::count(stripped.begin(),
                                                   stripped.begin() + static_cast<long>(pos), '\n'));
        (*decl_lines)[name] = line;
      }
    }
  }
  return names;
}

struct RangeFor {
  int line = 0;             // 1-based line of the `for`
  std::string range_ident;  // last identifier of the range expression
};

/// Finds range-based for statements and the final identifier of each range
/// expression (`store_` in `for (auto& kv : store_)`, `rows` in
/// `for (const auto& r : view->rows)`).
std::vector<RangeFor> FindRangeFors(std::string_view stripped) {
  std::vector<RangeFor> fors;
  for (size_t pos = stripped.find("for"); pos != std::string_view::npos;
       pos = stripped.find("for", pos + 1)) {
    if (!MatchWord(stripped, pos, "for")) continue;
    size_t open = pos + 3;
    while (open < stripped.size() && IsSpace(stripped[open])) ++open;
    if (open >= stripped.size() || stripped[open] != '(') continue;
    int depth = 0;
    size_t cursor = open;
    size_t colon = std::string_view::npos;
    bool has_semicolon = false;
    for (; cursor < stripped.size(); ++cursor) {
      char c = stripped[cursor];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) break;
      if (depth == 1 && c == ';') has_semicolon = true;
      if (depth == 1 && c == ':' && colon == std::string_view::npos) {
        bool double_colon = (cursor + 1 < stripped.size() && stripped[cursor + 1] == ':') ||
                            (cursor > 0 && stripped[cursor - 1] == ':');
        if (!double_colon) colon = cursor;
      }
    }
    if (cursor >= stripped.size() || has_semicolon || colon == std::string_view::npos) continue;
    std::string_view range = stripped.substr(colon + 1, cursor - colon - 1);
    // Last identifier in the range expression.
    size_t end = range.find_last_not_of(" \t\r\n");
    if (end == std::string_view::npos) continue;
    while (end != std::string_view::npos && !IsIdentChar(range[end])) {
      if (end == 0) break;
      --end;
    }
    if (!IsIdentChar(range[end])) continue;
    size_t begin = end;
    while (begin > 0 && IsIdentChar(range[begin - 1])) --begin;
    RangeFor entry;
    entry.range_ident = std::string(range.substr(begin, end - begin + 1));
    entry.line = 1 + static_cast<int>(std::count(stripped.begin(),
                                                 stripped.begin() + static_cast<long>(pos), '\n'));
    fors.push_back(entry);
  }
  return fors;
}

/// A file is order-sensitive (QL003 applies) when it emits bytes whose
/// order a reader could depend on: serialization, text output, hashing of
/// aggregated state.
bool IsOrderSensitive(std::string_view stripped) {
  for (std::string_view marker :
       {"Serialize", "ToString", "ostream", "ostringstream", "AtomicWriteFile",
        "WriteArtifact", "fprintf", "printf"}) {
    if (stripped.find(marker) != std::string_view::npos) return true;
  }
  return false;
}

// ---- String-literal extraction (QL009's format-string scan needs the raw
// literal bytes that StripCommentsAndStrings blanks out) ----

struct Literal {
  int line = 0;
  std::string text;  // contents between the quotes, escapes left as written
};

std::vector<Literal> ExtractStringLiterals(std::string_view content) {
  std::vector<Literal> literals;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  int line = 1;
  Literal current;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          current = {line, ""};
        } else if (c == '\'' && (i == 0 || !IsIdentChar(content[i - 1]))) {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          current.text += c;
          if (i + 1 < content.size()) {
            current.text += next;
            if (next == '\n') ++line;
            ++i;
          }
        } else if (c == '"') {
          literals.push_back(current);
          state = State::kCode;
        } else {
          current.text += c;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return literals;
}

// ---- Cross-file declaration/annotation model (QL007–QL010) --------------
//
// Pass 1 walks every input file's stripped text with a pending-statement
// scope scanner and records classes, their Mutex members and member types,
// and every function (free or method, declaration or definition) with its
// return type, parameters, thread-safety annotation arguments, and body
// span. Pass 2 (AnalyzeBody below) lints each function body against the
// merged model.

struct FuncInfo {
  std::string cls;          // qualified enclosing class, "" for free functions
  std::string name;         // unqualified
  std::string return_type;  // raw return-type text
  bool returns_status = false;
  bool is_ctor_or_dtor = false;
  std::vector<std::string> requires_args;  // REQUIRES(...) — held at entry
  std::vector<std::string> acquire_args;   // ACQUIRE(...)/EXCLUDES(...) — may acquire
  std::vector<std::pair<std::string, std::string>> params;  // name -> type text
  std::string path;
  int line = 0;       // signature line
  int file_index = -1;
  size_t body_begin = 0, body_end = 0;  // offsets into the file's stripped text

  bool has_body() const { return body_end > body_begin; }
  std::string Key() const { return cls + "::" + name; }
};

struct ClassInfo {
  std::map<std::string, std::string> member_type;  // member name -> raw type text
  std::set<std::string> mutex_members;
};

struct Model {
  std::map<std::string, ClassInfo> classes;
  std::vector<FuncInfo> funcs;
  std::multimap<std::string, int> funcs_by_name;
  // member name -> distinct (class, type text) owners; the unique-owner
  // fallback resolves receivers like `catalog_` inside TEST bodies.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>> member_owners;

  void BuildIndexes() {
    funcs_by_name.clear();
    for (int i = 0; i < static_cast<int>(funcs.size()); ++i) {
      funcs_by_name.emplace(funcs[i].name, i);
    }
    member_owners.clear();
    for (const auto& [cls, info] : classes) {
      for (const auto& [name, type] : info.member_type) {
        member_owners[name].push_back({cls, type});
      }
    }
  }
};

bool IsAllCapsMacro(std::string_view token) {
  if (token.size() < 2) return false;
  bool has_upper = false;
  for (char c : token) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      has_upper = true;
    } else if (!std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return has_upper;
}

size_t SkipWs(std::string_view text, size_t pos) {
  while (pos < text.size() && IsSpace(text[pos])) ++pos;
  return pos;
}

/// Offset of the ')' matching the '(' at `open`, or npos.
size_t MatchParenFwd(std::string_view text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

/// First '(' outside template angles, so `std::function<void()> cb_;` is a
/// member, not a function. `<` only opens an angle scope straight after an
/// identifier (template-argument position).
size_t FindTopParen(std::string_view text) {
  int angle = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '<' && i > 0 && IsIdentChar(text[i - 1])) {
      ++angle;
    } else if (c == '>' && angle > 0) {
      --angle;
    } else if (c == '(' && angle == 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

/// First top-level '=' that is an initializer (not ==, !=, <=, >=, +=, ...).
size_t FindTopLevelEq(std::string_view text) {
  int paren = 0, angle = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '<' && i > 0 && IsIdentChar(text[i - 1])) ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == '=' && paren == 0 && angle == 0) {
      char prev = i > 0 ? text[i - 1] : '\0';
      char next = i + 1 < text.size() ? text[i + 1] : '\0';
      if (next == '=' ) { ++i; continue; }
      if (std::string_view("=!<>+-*/|&^%").find(prev) != std::string_view::npos) continue;
      return i;
    }
  }
  return std::string_view::npos;
}

void SplitTopCommas(std::string_view text, std::vector<std::string>* out) {
  int paren = 0, angle = 0, brace = 0;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    char c = i < text.size() ? text[i] : ',';
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '<' && i > 0 && IsIdentChar(text[i - 1])) ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ',' && paren == 0 && angle == 0 && brace == 0) {
      std::string piece = Trim(text.substr(start, i - start));
      if (!piece.empty()) out->push_back(piece);
      start = i + 1;
    }
  }
}

/// Normalizes an annotation argument: `&mu_` -> `mu_`, `this->mu_` -> `mu_`.
std::string CleanAnnotationArg(std::string arg) {
  while (!arg.empty() && (arg[0] == '&' || arg[0] == '*')) arg.erase(0, 1);
  if (arg.rfind("this->", 0) == 0) arg.erase(0, 6);
  return Trim(arg);
}

void ParseAnnotationArgs(std::string_view text, std::string_view word,
                         std::vector<std::string>* out) {
  for (size_t pos = text.find(word); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (!MatchWord(text, pos, word)) continue;
    size_t open = SkipWs(text, pos + word.size());
    if (open >= text.size() || text[open] != '(') continue;
    size_t close = MatchParenFwd(text, open);
    if (close == std::string_view::npos) continue;
    std::vector<std::string> args;
    SplitTopCommas(text.substr(open + 1, close - open - 1), &args);
    for (std::string& arg : args) {
      std::string cleaned = CleanAnnotationArg(std::move(arg));
      if (!cleaned.empty()) out->push_back(cleaned);
    }
  }
}

/// Last `::` component of the first real type term in `text` ("qsteer::Status"
/// -> "Status", "Result<int>" -> "Result", "static const Mutex" -> "Mutex").
std::string FirstTypeTerm(std::string_view text) {
  static const std::set<std::string> kSkip = {
      "static", "inline",  "virtual", "explicit", "constexpr", "friend",
      "extern", "typename", "const",  "mutable",  "volatile",  "class",
      "struct", "unsigned", "signed"};
  size_t i = 0;
  while (i < text.size()) {
    i = SkipWs(text, i);
    size_t begin = i;
    while (i < text.size() && (IsIdentChar(text[i]) || text[i] == ':')) ++i;
    if (i == begin) break;
    std::string term(text.substr(begin, i - begin));
    if (kSkip.count(term)) continue;
    if (size_t dc = term.rfind("::"); dc != std::string::npos) term = term.substr(dc + 2);
    return term;
  }
  return "";
}

bool ReturnsStatusType(std::string_view return_type) {
  // References and pointers to Status are observers, not owners; the
  // [[nodiscard]] attribute (and therefore the lint) exempts them.
  if (return_type.find('&') != std::string_view::npos) return false;
  if (return_type.find('*') != std::string_view::npos) return false;
  std::string term = FirstTypeTerm(return_type);
  return term == "Status" || term == "Result" || term == "StatusOr";
}

/// Strips [[attributes]], leading access labels, and leading template<...>
/// prefixes from a pending declaration.
std::string CleanPending(std::string text) {
  size_t attr;
  while ((attr = text.find("[[")) != std::string::npos) {
    size_t close = text.find("]]", attr);
    if (close == std::string::npos) break;
    text.erase(attr, close - attr + 2);
  }
  for (;;) {
    std::string trimmed = Trim(text);
    if (trimmed != text) text = trimmed;
    bool again = false;
    for (std::string_view label : {"public:", "private:", "protected:"}) {
      if (text.rfind(label, 0) == 0) {
        text.erase(0, label.size());
        again = true;
      }
    }
    if (MatchWord(text, 0, "template")) {
      size_t lt = text.find('<');
      if (lt == std::string::npos) return "";
      int depth = 0;
      size_t i = lt;
      for (; i < text.size(); ++i) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) break;
      }
      if (i >= text.size()) return "";
      text.erase(0, i + 1);
      again = true;
    }
    if (!again) break;
  }
  return text;
}

/// Extracts the declared name from a class-head ("class CAPABILITY(\"mutex\")
/// Mutex : ..." -> "Mutex"), skipping attribute macros. Empty when the text
/// is not a class/struct definition head.
std::string ClassHeadName(const std::string& text) {
  if (ContainsWordCall(text, "enum", /*require_paren=*/false)) return "";
  size_t kw = std::string::npos;
  for (std::string_view word : {"class", "struct"}) {
    for (size_t pos = text.find(word); pos != std::string::npos;
         pos = text.find(word, pos + 1)) {
      if (MatchWord(text, pos, word)) {
        if (kw == std::string::npos || pos < kw) kw = pos;
        break;
      }
    }
  }
  if (kw == std::string::npos) return "";
  size_t paren = FindTopParen(text);
  if (paren != std::string::npos && paren < kw) return "";  // function returning a struct
  size_t i = kw;
  while (i < text.size() && IsIdentChar(text[i])) ++i;  // past the keyword
  while (i < text.size()) {
    i = SkipWs(text, i);
    if (i >= text.size() || text[i] == ':' || text[i] == '{') return "";
    size_t begin = i;
    while (i < text.size() && IsIdentChar(text[i])) ++i;
    if (i == begin) return "";
    std::string token = text.substr(begin, i - begin);
    size_t after = SkipWs(text, i);
    bool macro_call = after < text.size() && text[after] == '(';
    if (macro_call && IsAllCapsMacro(token)) {
      size_t close = MatchParenFwd(text, after);
      if (close == std::string::npos) return "";
      i = close + 1;
      continue;
    }
    if (IsAllCapsMacro(token) || token == "alignas" || token == "final") continue;
    if (token == "class" || token == "struct") continue;
    return token;
  }
  return "";
}

/// Parses a function signature out of a pending declaration. Returns false
/// when the text is not function-shaped.
bool ParseSignature(const std::string& text, const std::string& scope_cls, FuncInfo* func) {
  size_t paren = FindTopParen(text);
  if (paren == std::string::npos || paren == 0) return false;
  size_t close = MatchParenFwd(text, paren);
  size_t name_end = paren;
  while (name_end > 0 && IsSpace(text[name_end - 1])) --name_end;
  size_t name_begin = name_end;
  while (name_begin > 0 && (IsIdentChar(text[name_begin - 1]) || text[name_begin - 1] == ':' ||
                            text[name_begin - 1] == '~')) {
    --name_begin;
  }
  std::string full = text.substr(name_begin, name_end - name_begin);
  while (!full.empty() && full[0] == ':') full.erase(0, 1);
  if (full.empty() || std::isdigit(static_cast<unsigned char>(full[0]))) return false;
  std::string cls = scope_cls;
  std::string name = full;
  if (size_t dc = full.rfind("::"); dc != std::string::npos) {
    std::string prefix = full.substr(0, dc);
    name = full.substr(dc + 2);
    cls = scope_cls.empty() ? prefix : scope_cls + "::" + prefix;
  }
  static const std::set<std::string> kNotAFunction = {
      "if", "for", "while", "switch", "return", "catch", "sizeof", "operator",
      "new", "delete", "throw", "defined", "assert", "decltype", "noexcept"};
  if (name.empty() || kNotAFunction.count(name)) return false;
  func->cls = cls;
  func->name = name;
  std::string cls_last = cls;
  if (size_t dc = cls_last.rfind("::"); dc != std::string::npos) cls_last = cls_last.substr(dc + 2);
  func->is_ctor_or_dtor = (!cls.empty() && name == cls_last) || name[0] == '~';
  func->return_type = Trim(text.substr(0, name_begin));
  func->returns_status = !func->is_ctor_or_dtor && ReturnsStatusType(func->return_type);
  if (close != std::string::npos) {
    std::vector<std::string> raw_params;
    SplitTopCommas(text.substr(paren + 1, close - paren - 1), &raw_params);
    for (std::string& param : raw_params) {
      if (size_t eq = FindTopLevelEq(param); eq != std::string::npos) {
        param = Trim(param.substr(0, eq));
      }
      size_t end = param.size();
      while (end > 0 && IsSpace(param[end - 1])) --end;
      size_t begin = end;
      while (begin > 0 && IsIdentChar(param[begin - 1])) --begin;
      if (begin == end || begin == 0) continue;  // unnamed or type-only
      std::string pname = param.substr(begin, end - begin);
      std::string ptype = Trim(param.substr(0, begin));
      if (pname == "void" || ptype.empty()) continue;
      func->params.push_back({pname, ptype});
    }
    std::string tail = text.substr(close + 1);
    ParseAnnotationArgs(tail, "REQUIRES", &func->requires_args);
    ParseAnnotationArgs(tail, "ACQUIRE", &func->acquire_args);
    ParseAnnotationArgs(tail, "EXCLUDES", &func->acquire_args);
  }
  return true;
}

/// Scope-aware declaration scanner: fills `model` with the classes, members,
/// and functions of one stripped file.
void ExtractDecls(const std::string& path, const std::string& stripped, int file_index,
                  Model* model) {
  LineIndex lines(stripped);
  struct Scope {
    int kind;  // 0 namespace, 1 class, 2 function, 3 other
    std::string cls;
    int func = -1;
  };
  std::vector<Scope> stack;
  auto in_func = [&stack] {
    for (const Scope& s : stack) {
      if (s.kind == 2) return true;
    }
    return false;
  };
  auto cur_class = [&stack]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == 1) return it->cls;
      if (it->kind == 2) return "";  // local scopes resolve via the local struct itself
    }
    return "";
  };

  auto process_decl = [&](const std::string& raw, size_t begin_offset) {
    std::string text = CleanPending(raw);
    if (text.empty()) return;
    for (std::string_view skip :
         {"friend", "using", "typedef", "static_assert", "namespace", "extern", "enum", "goto",
          "return", "break", "continue", "case", "default"}) {
      if (MatchWord(text, 0, skip)) return;
    }
    // Strip a trailing initializer, then trailing annotation-macro calls
    // (`int x_ GUARDED_BY(mu_) = 0;`).
    if (size_t eq = FindTopLevelEq(text); eq != std::string::npos) {
      text = Trim(text.substr(0, eq));
    }
    for (;;) {
      text = Trim(text);
      if (text.empty() || text.back() != ')') break;
      int depth = 0;
      size_t open = std::string::npos;
      for (size_t i = text.size(); i-- > 0;) {
        if (text[i] == ')') ++depth;
        if (text[i] == '(' && --depth == 0) {
          open = i;
          break;
        }
      }
      if (open == std::string::npos) break;
      size_t macro_end = open;
      while (macro_end > 0 && IsSpace(text[macro_end - 1])) --macro_end;
      size_t macro_begin = macro_end;
      while (macro_begin > 0 && IsIdentChar(text[macro_begin - 1])) --macro_begin;
      std::string macro = text.substr(macro_begin, macro_end - macro_begin);
      if (!IsAllCapsMacro(macro)) break;
      text = Trim(text.substr(0, macro_begin));
    }
    if (text.empty()) return;
    bool at_class = !stack.empty() && stack.back().kind == 1;
    if (FindTopParen(text) != std::string::npos) {
      FuncInfo func;
      if (ParseSignature(text, at_class ? stack.back().cls : "", &func)) {
        func.path = path;
        func.line = lines.LineOf(begin_offset);
        func.file_index = file_index;
        model->funcs.push_back(std::move(func));
      }
      return;
    }
    if (!at_class) return;
    // Member variable: `Type name;` (arrays and bitfields stripped down).
    while (!text.empty() && text.back() == ']') {
      size_t open = text.rfind('[');
      if (open == std::string::npos) break;
      text = Trim(text.substr(0, open));
    }
    size_t end = text.size();
    while (end > 0 && IsSpace(text[end - 1])) --end;
    size_t begin = end;
    while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
    if (begin == end || begin == 0) return;
    std::string name = text.substr(begin, end - begin);
    if (std::isdigit(static_cast<unsigned char>(name[0]))) return;
    std::string type = Trim(text.substr(0, begin));
    if (type.empty() || type.back() == ',') return;
    ClassInfo& info = model->classes[stack.back().cls];
    info.member_type[name] = type;
    if (FirstTypeTerm(type) == "Mutex") info.mutex_members.insert(name);
  };

  size_t pending_begin = std::string::npos;
  size_t i = 0;
  auto pending_text = [&](size_t boundary) {
    return pending_begin == std::string::npos
               ? std::string()
               : std::string(stripped.substr(pending_begin, boundary - pending_begin));
  };
  while (i < stripped.size()) {
    char c = stripped[i];
    // Skip preprocessor lines (handles continuations); they never contribute
    // declarations and their braces/semicolons would desynchronize scopes.
    if (c == '#') {
      size_t line_start = stripped.rfind('\n', i == 0 ? 0 : i - 1);
      line_start = line_start == std::string::npos ? 0 : line_start + 1;
      bool only_ws = true;
      for (size_t j = line_start; j < i; ++j) {
        if (!IsSpace(stripped[j])) {
          only_ws = false;
          break;
        }
      }
      if (only_ws) {
        while (i < stripped.size() && stripped[i] != '\n') {
          if (stripped[i] == '\\' && i + 1 < stripped.size() && stripped[i + 1] == '\n') ++i;
          ++i;
        }
        continue;
      }
    }
    if (c == '{') {
      std::string text = CleanPending(pending_text(i));
      Scope scope{3, cur_class(), -1};
      std::string class_name = ClassHeadName(text);
      if (MatchWord(text, 0, "namespace") || text.rfind("inline namespace", 0) == 0) {
        scope.kind = 0;
      } else if (!class_name.empty()) {
        scope.kind = 1;
        scope.cls = scope.cls.empty() ? class_name : scope.cls + "::" + class_name;
      } else if (!in_func() && FindTopParen(text) != std::string::npos) {
        size_t paren = FindTopParen(text);
        size_t eq = FindTopLevelEq(text);
        // Not a function when an initializer precedes the paren (lambdas,
        // brace-initialized globals) or when the brace belongs to a
        // member-brace-initializer inside a constructor's init list.
        bool init_brace = false;
        {
          int depth = 0;
          size_t last_close = std::string::npos;
          for (size_t j = 0; j < text.size(); ++j) {
            if (text[j] == '(') ++depth;
            if (text[j] == ')' && --depth == 0) last_close = j;
          }
          std::string tail = last_close == std::string::npos
                                 ? std::string()
                                 : Trim(text.substr(last_close + 1));
          if (!tail.empty() && (tail.find(',') != std::string::npos ||
                                IsIdentChar(tail.back()))) {
            // e.g. `Foo() : a_(1), b_` just before `b_{2}` — keep scanning.
            static const std::set<std::string> kOkTail = {"const",    "noexcept", "override",
                                                          "final",    "mutable",  "try"};
            bool all_ok = true;
            std::istringstream toks(tail);
            std::string tok;
            while (toks >> tok) {
              if (tok == ":" || tok[0] == ':') continue;
              if (!kOkTail.count(tok) && !IsAllCapsMacro(tok)) {
                all_ok = false;
                break;
              }
            }
            init_brace = !all_ok;
          }
        }
        if (!(eq != std::string::npos && eq < paren) && !init_brace) {
          FuncInfo func;
          if (ParseSignature(text, cur_class(), &func)) {
            func.path = path;
            func.line = lines.LineOf(pending_begin == std::string::npos ? i : pending_begin);
            func.file_index = file_index;
            func.body_begin = i + 1;
            model->funcs.push_back(std::move(func));
            scope.kind = 2;
            scope.func = static_cast<int>(model->funcs.size()) - 1;
          }
        }
      }
      stack.push_back(std::move(scope));
      pending_begin = std::string::npos;
    } else if (c == '}') {
      if (!stack.empty()) {
        if (stack.back().kind == 2 && stack.back().func >= 0) {
          model->funcs[static_cast<size_t>(stack.back().func)].body_end = i;
        }
        stack.pop_back();
      }
      pending_begin = std::string::npos;
    } else if (c == ';') {
      if (!in_func() && pending_begin != std::string::npos) {
        process_decl(pending_text(i), pending_begin);
      }
      pending_begin = std::string::npos;
    } else if (!IsSpace(c)) {
      if (pending_begin == std::string::npos) pending_begin = i;
    }
    ++i;
  }
}

// ---- Model resolution --------------------------------------------------

/// Resolves a (possibly unqualified) class name against the model: exact
/// match first, then a unique `...::ident` suffix (`Shard` ->
/// `CompileCache::Shard`).
std::string ResolveClassName(const Model& model, const std::string& ident) {
  if (ident.empty()) return "";
  if (model.classes.count(ident)) return ident;
  std::string match;
  const std::string suffix = "::" + ident;
  for (const auto& [cls, info] : model.classes) {
    (void)info;  // qsteer-lint: allow(unchecked-status) structured binding, not a Status
    if (cls.size() > suffix.size() &&
        cls.compare(cls.size() - suffix.size(), suffix.size(), suffix) == 0) {
      if (!match.empty()) return "";  // ambiguous
      match = cls;
    }
  }
  return match;
}

/// First model class named anywhere in a type text: `const SteeringPipeline&`
/// resolves to SteeringPipeline, `std::vector<Shard>` unwraps to the element
/// class. Returns "" when no identifier in the text names a known class.
std::string TypeToClass(const Model& model, const std::string& type_text) {
  size_t i = 0;
  while (i < type_text.size()) {
    while (i < type_text.size() && !IsIdentChar(type_text[i])) ++i;
    size_t begin = i;
    while (i < type_text.size() && (IsIdentChar(type_text[i]) ||
                                    (type_text[i] == ':' && i + 1 < type_text.size() &&
                                     type_text[i + 1] == ':') ||
                                    (type_text[i] == ':' && i > begin && type_text[i - 1] == ':'))) {
      ++i;
    }
    if (i == begin) continue;
    std::string term(type_text.substr(begin, i - begin));
    std::string resolved = ResolveClassName(model, term);
    if (resolved.empty()) {
      if (size_t dc = term.rfind("::"); dc != std::string::npos) {
        resolved = ResolveClassName(model, term.substr(dc + 2));
      }
    }
    if (!resolved.empty()) return resolved;
  }
  return "";
}

/// Member type lookup, walking outward through enclosing classes so a
/// nested-class method sees the outer class's members.
const std::string* FindMemberType(const Model& model, const std::string& cls,
                                  const std::string& name) {
  std::string cur = ResolveClassName(model, cls);
  if (cur.empty()) cur = cls;
  while (!cur.empty()) {
    auto it = model.classes.find(cur);
    if (it != model.classes.end()) {
      auto member = it->second.member_type.find(name);
      if (member != it->second.member_type.end()) return &member->second;
    }
    size_t dc = cur.rfind("::");
    if (dc == std::string::npos) break;
    cur = cur.substr(0, dc);
  }
  return nullptr;
}

/// All model functions named `name` on class `cls` (resolved).
std::vector<int> FindMethods(const Model& model, const std::string& cls,
                             const std::string& name) {
  std::string resolved = ResolveClassName(model, cls);
  if (resolved.empty()) resolved = cls;
  std::vector<int> out;
  auto range = model.funcs_by_name.equal_range(name);
  for (auto it = range.first; it != range.second; ++it) {
    const FuncInfo& func = model.funcs[static_cast<size_t>(it->second)];
    std::string func_cls = ResolveClassName(model, func.cls);
    if (func_cls.empty()) func_cls = func.cls;
    if (func_cls == resolved) out.push_back(it->second);
  }
  return out;
}

/// The unique class owning a Mutex member named `name`, or "".
std::string UniqueMutexOwner(const Model& model, const std::string& name) {
  std::string match;
  for (const auto& [cls, info] : model.classes) {
    if (info.mutex_members.count(name)) {
      if (!match.empty()) return "";
      match = cls;
    }
  }
  return match;
}

/// The unique class that the type of any member named `name` resolves to
/// (`catalog_` declared as `Catalog catalog_` in several test fixtures still
/// resolves, because every owner agrees on the type).
std::string UniqueMemberTypeClass(const Model& model, const std::string& name) {
  auto it = model.member_owners.find(name);
  if (it == model.member_owners.end()) return "";
  std::string match;
  for (const auto& [cls, type] : it->second) {
    (void)cls;  // qsteer-lint: allow(unchecked-status) structured binding, not a Status
    std::string resolved = TypeToClass(model, type);
    if (resolved.empty()) continue;
    if (!match.empty() && match != resolved) return "";
    match = resolved;
  }
  return match;
}

/// Resolves a mutex expression (`mu_`, `shard.mu`, `&self->mu_`) to a
/// qualified "Class::member" id in the context of class `cls` with local
/// bindings `locals`. Returns "" for caller-supplied mutexes (parameters)
/// and anything unresolvable — an unnamed mutex cannot take part in a
/// global hierarchy.
std::string ResolveMutexExpr(const Model& model, const std::string& cls,
                             const std::map<std::string, std::string>& locals,
                             const std::string& raw_expr) {
  std::string expr = CleanAnnotationArg(raw_expr);
  // Split on . and ->, dropping subscripts.
  std::vector<std::string> path;
  std::string piece;
  for (size_t i = 0; i < expr.size(); ++i) {
    char c = expr[i];
    if (c == '.' || (c == '-' && i + 1 < expr.size() && expr[i + 1] == '>')) {
      if (!piece.empty()) path.push_back(piece);
      piece.clear();
      if (c == '-') ++i;
    } else if (c == '[') {
      int depth = 1;
      while (++i < expr.size() && depth > 0) {
        if (expr[i] == '[') ++depth;
        if (expr[i] == ']') --depth;
      }
      --i;
    } else if (IsIdentChar(c) || c == ':') {
      piece += c;
    }
  }
  if (!piece.empty()) path.push_back(piece);
  if (path.empty()) return "";
  if (path.size() == 1) {
    const std::string& name = path[0];
    if (name == "this") return "";
    auto local = locals.find(name);
    if (local != locals.end()) {
      // A caller-supplied Mutex parameter/local has no global identity.
      return "";
    }
    std::string cur = ResolveClassName(model, cls);
    if (cur.empty()) cur = cls;
    while (!cur.empty()) {
      auto it = model.classes.find(cur);
      if (it != model.classes.end() && it->second.mutex_members.count(name)) {
        return cur + "::" + name;
      }
      size_t dc = cur.rfind("::");
      if (dc == std::string::npos) break;
      cur = cur.substr(0, dc);
    }
    std::string owner = UniqueMutexOwner(model, name);
    return owner.empty() ? "" : owner + "::" + name;
  }
  // Multi-part path: resolve the prefix to a class, then require the last
  // element to be one of its mutex members.
  std::string cur;
  for (size_t idx = 0; idx + 1 < path.size(); ++idx) {
    const std::string& name = path[idx];
    if (idx == 0) {
      if (name == "this") {
        cur = cls;
      } else if (auto local = locals.find(name); local != locals.end()) {
        cur = TypeToClass(model, local->second);
      } else if (const std::string* member = FindMemberType(model, cls, name)) {
        cur = TypeToClass(model, *member);
      } else if (std::string unique = UniqueMemberTypeClass(model, name); !unique.empty()) {
        cur = unique;
      } else {
        cur = ResolveClassName(model, name);
      }
    } else {
      if (cur.empty()) return "";
      const std::string* member = FindMemberType(model, cur, name);
      if (!member) return "";
      cur = TypeToClass(model, *member);
    }
  }
  if (cur.empty()) return "";
  std::string resolved = ResolveClassName(model, cur);
  if (resolved.empty()) resolved = cur;
  auto it = model.classes.find(resolved);
  if (it != model.classes.end() && it->second.mutex_members.count(path.back())) {
    return resolved + "::" + path.back();
  }
  return "";
}

// ---- Expression chains -------------------------------------------------

struct ChainElem {
  std::string name;
  bool is_call = false;
  size_t args_begin = 0, args_end = 0;  // offsets into the scanned text
};

struct Chain {
  std::vector<ChainElem> elems;
  size_t begin = 0, end = 0;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `ident(::ident)*([..])*((...))?((.|->)ident...)*` starting at an
/// identifier. Returns false when nothing chain-shaped starts at `pos`.
bool ParseChainAt(std::string_view text, size_t pos, Chain* chain) {
  chain->elems.clear();
  chain->begin = pos;
  size_t i = pos;
  for (;;) {
    if (i >= text.size() || !IsIdentStart(text[i])) return !chain->elems.empty();
    size_t begin = i;
    while (i < text.size() && IsIdentChar(text[i])) ++i;
    std::string name(text.substr(begin, i - begin));
    while (i + 2 < text.size() && text[i] == ':' && text[i + 1] == ':' &&
           IsIdentStart(text[i + 2])) {
      size_t comp_begin = i + 2;
      i = comp_begin;
      while (i < text.size() && IsIdentChar(text[i])) ++i;
      name += "::" + std::string(text.substr(comp_begin, i - comp_begin));
    }
    ChainElem elem;
    elem.name = std::move(name);
    size_t cursor = i;
    // Subscripts between the name and a call / the next link.
    for (;;) {
      size_t probe = SkipWs(text, cursor);
      if (probe < text.size() && text[probe] == '[') {
        int depth = 1;
        size_t j = probe + 1;
        for (; j < text.size() && depth > 0; ++j) {
          if (text[j] == '[') ++depth;
          if (text[j] == ']') --depth;
        }
        cursor = j;
        continue;
      }
      break;
    }
    size_t probe = SkipWs(text, cursor);
    if (probe < text.size() && text[probe] == '(') {
      size_t close = MatchParenFwd(text, probe);
      if (close == std::string_view::npos) {
        chain->elems.push_back(std::move(elem));
        chain->end = cursor;
        return true;
      }
      elem.is_call = true;
      elem.args_begin = probe + 1;
      elem.args_end = close;
      cursor = close + 1;
    }
    chain->elems.push_back(std::move(elem));
    chain->end = cursor;
    size_t after = SkipWs(text, cursor);
    if (after + 1 < text.size() && text[after] == '.' && IsIdentStart(text[after + 1])) {
      i = after + 1;
      continue;
    }
    if (after + 2 < text.size() && text[after] == '-' && text[after + 1] == '>' &&
        IsIdentStart(text[after + 2])) {
      i = after + 2;
      continue;
    }
    return true;
  }
}

/// Locals of a function body: `Type name` declarations keyed by name, with
/// the raw type text. Parameters are merged in by the caller.
void ScanLocalDecls(std::string_view body, std::map<std::string, std::string>* locals) {
  static const std::set<std::string> kSkipHead = {
      "return", "if",   "while",  "switch",   "case",  "delete", "using", "typedef",
      "break",  "continue", "goto", "else",   "do",    "throw",  "default", "new",
      "public", "private", "protected", "auto"};
  static const std::set<std::string> kCv = {"const", "static", "constexpr", "mutable",
                                            "volatile", "thread_local", "register"};
  size_t start = 0;
  for (size_t i = 0; i <= body.size(); ++i) {
    char c = i < body.size() ? body[i] : ';';
    if (c != ';' && c != '{' && c != '}') continue;
    std::string stmt = Trim(body.substr(start, i - start));
    start = i + 1;
    if (stmt.empty() || stmt[0] == '(' || stmt[0] == '#') continue;
    if (MatchWord(stmt, 0, "for")) {
      size_t paren = stmt.find('(');
      if (paren == std::string::npos) continue;
      stmt = Trim(stmt.substr(paren + 1));
      if (stmt.empty()) continue;
    }
    size_t j = 0;
    bool skip = false;
    for (;;) {
      size_t word_end = j;
      while (word_end < stmt.size() && IsIdentChar(stmt[word_end])) ++word_end;
      std::string word = stmt.substr(j, word_end - j);
      if (kSkipHead.count(word)) {
        skip = true;
        break;
      }
      if (kCv.count(word)) {
        j = SkipWs(stmt, word_end);
        continue;
      }
      break;
    }
    if (skip || j >= stmt.size() || !IsIdentStart(stmt[j])) continue;
    // Type term: ident(::ident)* with optional balanced template args.
    size_t type_begin = j;
    while (j < stmt.size() && IsIdentChar(stmt[j])) ++j;
    for (;;) {
      if (j + 2 < stmt.size() && stmt[j] == ':' && stmt[j + 1] == ':' &&
          IsIdentStart(stmt[j + 2])) {
        j += 2;
        while (j < stmt.size() && IsIdentChar(stmt[j])) ++j;
        continue;
      }
      if (j < stmt.size() && stmt[j] == '<') {
        int depth = 0;
        size_t k = j;
        for (; k < stmt.size(); ++k) {
          if (stmt[k] == '<') ++depth;
          if (stmt[k] == '>' && --depth == 0) break;
        }
        if (k >= stmt.size()) break;
        j = k + 1;
        continue;
      }
      break;
    }
    std::string type = stmt.substr(type_begin, j - type_begin);
    j = SkipWs(stmt, j);
    while (j < stmt.size() && (stmt[j] == '*' || stmt[j] == '&' || IsSpace(stmt[j]))) ++j;
    size_t name_begin = j;
    while (j < stmt.size() && IsIdentChar(stmt[j])) ++j;
    if (j == name_begin) continue;
    std::string name = stmt.substr(name_begin, j - name_begin);
    j = SkipWs(stmt, j);
    bool decl_shaped = j >= stmt.size() || stmt[j] == '=' || stmt[j] == '(' || stmt[j] == '{';
    if (!decl_shaped || type == "auto" || kSkipHead.count(name)) continue;
    (*locals)[name] = type;
  }
}

// ---- Body analysis (QL007, QL008 lock events, QL009/QL010 inputs) ------

struct CallSite {
  std::string callee_key;
  int line = 0;
  std::vector<std::string> held;
};

struct Ql7Site {
  int line = 0;
  bool void_cast = false;
  std::string callee;
};

struct BodyOut {
  std::vector<LockEdge> edges;
  std::set<std::string> direct_acquires;
  std::vector<CallSite> calls;
  std::vector<Ql7Site> ql7;
  std::vector<int> to_string_lines;
  bool raw_read = false;
  bool verify_token = false;
};

struct MergedAnn {
  std::vector<std::string> requires_raw;
  std::vector<std::string> acquire_raw;
};

struct ResolvedCall {
  std::string key;       // "" when unresolved
  int status_state = -1; // 1 returns Status/Result, 0 does not, -1 unknown
};

ResolvedCall ResolveCall(const Model& model, const FuncInfo& func,
                         const std::map<std::string, std::string>& locals,
                         const Chain& chain) {
  const ChainElem& last = chain.elems.back();
  std::vector<int> methods;
  if (chain.elems.size() >= 2) {
    // Resolve the receiver prefix to a class.
    std::string cur;
    bool resolvable = true;
    for (size_t idx = 0; idx + 1 < chain.elems.size(); ++idx) {
      const ChainElem& elem = chain.elems[idx];
      if (idx == 0) {
        if (elem.is_call) {
          std::vector<int> frees = FindMethods(model, "", elem.name);
          cur = frees.empty()
                    ? ""
                    : TypeToClass(model, model.funcs[static_cast<size_t>(frees[0])].return_type);
        } else if (elem.name == "this") {
          cur = func.cls;
        } else if (auto local = locals.find(elem.name); local != locals.end()) {
          cur = TypeToClass(model, local->second);
        } else if (const std::string* member = FindMemberType(model, func.cls, elem.name)) {
          cur = TypeToClass(model, *member);
        } else if (std::string unique = UniqueMemberTypeClass(model, elem.name);
                   !unique.empty()) {
          cur = unique;
        } else {
          cur = ResolveClassName(model, elem.name);
        }
      } else if (elem.is_call) {
        std::vector<int> mids = FindMethods(model, cur, elem.name);
        cur = mids.empty()
                  ? ""
                  : TypeToClass(model, model.funcs[static_cast<size_t>(mids[0])].return_type);
      } else {
        const std::string* member = FindMemberType(model, cur, elem.name);
        cur = member ? TypeToClass(model, *member) : "";
      }
      if (cur.empty()) {
        resolvable = false;
        break;
      }
    }
    if (resolvable) methods = FindMethods(model, cur, last.name);
  } else {
    // Inside a member function an unqualified name is the caller's own
    // method first, as in C++ lookup; only then a free function.
    if (!func.cls.empty()) methods = FindMethods(model, func.cls, last.name);
    if (methods.empty()) methods = FindMethods(model, "", last.name);
  }
  if (!methods.empty()) {
    bool all_status = true, any_status = false;
    for (int idx : methods) {
      const FuncInfo& m = model.funcs[static_cast<size_t>(idx)];
      if (m.is_ctor_or_dtor) continue;
      all_status = all_status && m.returns_status;
      any_status = any_status || m.returns_status;
    }
    ResolvedCall out;
    out.key = model.funcs[static_cast<size_t>(methods[0])].Key();
    out.status_state = (all_status && any_status) ? 1 : 0;
    return out;
  }
  // Fallback: resolve by name alone when every function with this name
  // agrees (the cross-TU case where the receiver's type is opaque).
  auto range = model.funcs_by_name.equal_range(last.name);
  if (range.first == range.second) return {};
  bool all_status = true, any = false;
  std::set<std::string> keys;
  for (auto it = range.first; it != range.second; ++it) {
    const FuncInfo& m = model.funcs[static_cast<size_t>(it->second)];
    if (m.is_ctor_or_dtor) return {};  // name collides with a constructor
    any = true;
    all_status = all_status && m.returns_status;
    keys.insert(m.Key());
  }
  ResolvedCall out;
  if (keys.size() == 1) out.key = *keys.begin();
  out.status_state = (any && all_status) ? 1 : 0;
  if (!all_status) out.status_state = keys.size() == 1 ? 0 : -1;
  return out;
}

/// 0 = not a statement head, 1 = bare expression statement, 2 = statement
/// behind an explicit (void) cast.
int StatementKind(std::string_view text, size_t chain_begin) {
  auto prev_nonws = [&text](size_t upto) {
    size_t k = upto;
    while (k > 0 && IsSpace(text[k - 1])) --k;
    return k;
  };
  size_t k = prev_nonws(chain_begin);
  bool void_cast = false;
  if (k >= 1 && text[k - 1] == ')') {
    size_t w = prev_nonws(k - 1);
    if (w >= 4 && text.compare(w - 4, 4, "void") == 0 &&
        (w == 4 || !IsIdentChar(text[w - 5]))) {
      size_t open = prev_nonws(w - 4);
      if (open >= 1 && text[open - 1] == '(') {
        void_cast = true;
        k = prev_nonws(open - 1);
      }
    }
    // Not a (void) cast: fall through — a ')' head may still be an
    // unbraced control body (`if (...) Call();`), handled below.
  }
  if (k == 0) return void_cast ? 2 : 1;
  char prev = text[k - 1];
  if (prev == ';' || prev == '{' || prev == '}') return void_cast ? 2 : 1;
  if (prev == ')') {
    // Unbraced control body: `if (...) Call();` and friends. Match the
    // closing paren backward and look at the keyword in front of it.
    int depth = 0;
    size_t i = k;
    while (i > 0) {
      --i;
      if (text[i] == ')') ++depth;
      if (text[i] == '(' && --depth == 0) break;
    }
    if (depth != 0 || text[i] != '(') return 0;
    size_t w = prev_nonws(i);
    size_t e = w;
    while (e > 0 && IsIdentChar(text[e - 1])) --e;
    std::string_view word = text.substr(e, w - e);
    if (word == "if" || word == "while" || word == "for" || word == "switch" ||
        word == "constexpr") {  // `if constexpr (...)`
      return void_cast ? 2 : 1;
    }
    return 0;
  }
  if (IsIdentChar(prev)) {
    size_t e = k;
    while (e > 0 && IsIdentChar(text[e - 1])) --e;
    std::string_view word = text.substr(e, k - e);
    if (word == "else" || word == "do") return void_cast ? 2 : 1;
  }
  return 0;
}

const std::set<std::string>& BodyKeywords() {
  static const std::set<std::string> kKeywords = {
      "if", "else", "for", "while", "do", "switch", "case", "default", "return",
      "break", "continue", "goto", "new", "delete", "sizeof", "throw", "using",
      "typedef", "template", "operator", "const", "constexpr", "static", "auto",
      "void", "int", "bool", "char", "float", "double", "unsigned", "signed",
      "long", "short", "struct", "class", "enum", "namespace", "true", "false",
      "nullptr", "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
      "public", "private", "protected", "try", "catch", "noexcept", "decltype"};
  return kKeywords;
}

void AnalyzeBody(const Model& model, const std::map<std::string, MergedAnn>& annotations,
                 const FuncInfo& func, const std::string& stripped, const LineIndex& lines,
                 BodyOut* out) {
  std::string_view body(stripped);
  body = body.substr(func.body_begin, func.body_end - func.body_begin);
  std::map<std::string, std::string> locals;
  for (const auto& [name, type] : func.params) locals[name] = type;
  ScanLocalDecls(body, &locals);

  std::vector<std::string> held0;
  if (auto it = annotations.find(func.Key()); it != annotations.end()) {
    for (const std::string& raw : it->second.requires_raw) {
      std::string id = ResolveMutexExpr(model, func.cls, locals, raw);
      if (!id.empty() && std::find(held0.begin(), held0.end(), id) == held0.end()) {
        held0.push_back(id);
      }
    }
  }

  struct Active {
    std::string id;
    size_t release;  // body offset after which the lock is gone
  };
  std::vector<Active> active;
  auto expire = [&active](size_t offset) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [offset](const Active& a) { return a.release <= offset; }),
                 active.end());
  };
  auto current_held = [&held0, &active] {
    std::vector<std::string> held = held0;
    for (const Active& a : active) {
      if (std::find(held.begin(), held.end(), a.id) == held.end()) held.push_back(a.id);
    }
    return held;
  };
  auto release_offset = [&body](size_t offset) {
    int depth = 0;
    for (size_t j = offset; j < body.size(); ++j) {
      if (body[j] == '{') ++depth;
      if (body[j] == '}' && --depth < 0) return j;
    }
    return body.size();
  };
  auto acquire = [&](const std::string& id, size_t offset, bool scoped) {
    int line = lines.LineOf(func.body_begin + offset);
    for (const std::string& held : current_held()) {
      if (held != id) out->edges.push_back({held, id, func.path, line});
    }
    out->direct_acquires.insert(id);
    active.push_back({id, scoped ? release_offset(offset) : body.size()});
  };

  size_t i = 0;
  while (i < body.size()) {
    char c = body[i];
    if (!IsIdentStart(c)) {
      ++i;
      continue;
    }
    if (i > 0) {
      char prev = body[i - 1];
      bool continuation = IsIdentChar(prev) || prev == '.' || prev == ':' ||
                          (prev == '>' && i > 1 && body[i - 2] == '-');
      if (continuation) {
        while (i < body.size() && IsIdentChar(body[i])) ++i;
        continue;
      }
    }
    size_t word_end = i;
    while (word_end < body.size() && IsIdentChar(body[word_end])) ++word_end;
    std::string word(body.substr(i, word_end - i));
    if (BodyKeywords().count(word)) {
      i = word_end;
      continue;
    }
    expire(i);
    if (word == "MutexLock") {
      size_t j = SkipWs(body, word_end);
      while (j < body.size() && IsIdentChar(body[j])) ++j;  // variable name, if any
      j = SkipWs(body, j);
      if (j < body.size() && body[j] == '(') {
        size_t close = MatchParenFwd(body, j);
        if (close != std::string_view::npos) {
          std::vector<std::string> args;
          SplitTopCommas(body.substr(j + 1, close - j - 1), &args);
          bool adopt = false;
          for (const std::string& arg : args) {
            if (arg.find("kAdoptLock") != std::string::npos) adopt = true;
          }
          std::string id =
              args.empty() ? "" : ResolveMutexExpr(model, func.cls, locals, args[0]);
          if (!id.empty()) {
            if (adopt) {
              active.push_back({id, release_offset(close)});
            } else {
              acquire(id, i, /*scoped=*/true);
              active.back().release = release_offset(close);
            }
          }
          i = close + 1;
          continue;
        }
      }
      i = word_end;
      continue;
    }
    Chain chain;
    if (!ParseChainAt(body, i, &chain) || chain.elems.empty()) {
      i = word_end;
      continue;
    }
    const ChainElem& last = chain.elems.back();
    size_t resume = chain.begin + chain.elems[0].name.size();
    if (last.is_call) {
      int call_line = lines.LineOf(func.body_begin + chain.begin);
      // Explicit Lock()/Unlock() on a mutex path.
      if ((last.name == "Lock" || last.name == "Unlock") && chain.elems.size() >= 2 &&
          last.args_begin >= last.args_end) {
        bool path_has_call = false;
        std::string expr;
        for (size_t idx = 0; idx + 1 < chain.elems.size(); ++idx) {
          path_has_call = path_has_call || chain.elems[idx].is_call;
          if (idx > 0) expr += ".";
          expr += chain.elems[idx].name;
        }
        std::string id =
            path_has_call ? "" : ResolveMutexExpr(model, func.cls, locals, expr);
        if (!id.empty()) {
          if (last.name == "Lock") {
            acquire(id, chain.begin, /*scoped=*/false);
          } else {
            for (size_t idx = active.size(); idx-- > 0;) {
              if (active[idx].id == id) {
                active.erase(active.begin() + static_cast<long>(idx));
                break;
              }
            }
          }
          i = resume;
          continue;
        }
      }
      ResolvedCall resolved = ResolveCall(model, func, locals, chain);
      if (!resolved.key.empty()) {
        out->calls.push_back({resolved.key, call_line, current_held()});
      }
      int kind = StatementKind(body, chain.begin);
      if (kind != 0 && resolved.status_state == 1) {
        size_t after = SkipWs(body, chain.end);
        if (after < body.size() && body[after] == ';') {
          std::string desc;
          for (size_t idx = 0; idx < chain.elems.size(); ++idx) {
            if (idx > 0) desc += ".";
            desc += chain.elems[idx].name;
          }
          out->ql7.push_back({call_line, kind == 2, desc});
        }
      }
      if (last.name == "to_string" || last.name == "std::to_string") {
        std::string arg(body.substr(last.args_begin, last.args_end - last.args_begin));
        arg = Trim(arg);
        bool floating = false;
        if (!arg.empty() && std::isdigit(static_cast<unsigned char>(arg[0])) &&
            arg.find('.') != std::string::npos) {
          floating = true;
        } else {
          size_t b = 0;
          while (b < arg.size() && !IsIdentStart(arg[b])) ++b;
          size_t e = b;
          while (e < arg.size() && IsIdentChar(arg[e])) ++e;
          if (e > b) {
            std::string ident = arg.substr(b, e - b);
            const std::string* type = nullptr;
            if (auto local = locals.find(ident); local != locals.end()) {
              type = &local->second;
            } else {
              type = FindMemberType(model, func.cls, ident);
            }
            if (type && (type->find("double") != std::string::npos ||
                         type->find("float") != std::string::npos)) {
              floating = true;
            }
          }
        }
        if (floating) out->to_string_lines.push_back(call_line);
      }
    }
    i = resume;
  }

  for (std::string_view token : {"ifstream", "fread", "ReadFileToString"}) {
    if (body.find(token) != std::string_view::npos) out->raw_read = true;
  }
  for (std::string_view token : {"Crc32", "crc32", "Checksummed", "checksum"}) {
    if (body.find(token) != std::string_view::npos) out->verify_token = true;
  }
}

// ---- Whole-repo analysis (pass 2 driver) -------------------------------

struct Ql10Site {
  int line = 0;
  std::string func_name;
};

struct GlobalAnalysis {
  Model model;
  std::map<std::string, std::vector<Ql7Site>> ql7_by_path;
  std::map<std::string, std::vector<int>> ql9_tostring_by_path;
  std::map<std::string, std::vector<Ql10Site>> ql10_by_path;
  std::vector<LockEdge> edges;  // deduped, sorted by (from, to)
  std::vector<Finding> graph_findings;
};

struct FileState {
  std::string path;
  std::string stripped;
  bool lint = false;  // false: contributes to the model only
};

/// Does this function's name put it on a durability-recovery path (QL010)?
bool IsRecoveryNamed(const std::string& name) {
  for (std::string_view marker : {"Parse", "Deserialize", "Install", "Warm", "Recover",
                                  "Replay", "Restore", "Load", "Read"}) {
    if (name.find(marker) != std::string::npos) return true;
  }
  return false;
}

void RunGlobalAnalysis(const std::vector<FileState>& files, const LintOptions& options,
                       GlobalAnalysis* out) {
  for (size_t i = 0; i < files.size(); ++i) {
    ExtractDecls(files[i].path, files[i].stripped, static_cast<int>(i), &out->model);
  }
  out->model.BuildIndexes();

  // Merge annotations across declarations and definitions of each function.
  std::map<std::string, MergedAnn> annotations;
  for (const FuncInfo& func : out->model.funcs) {
    MergedAnn& ann = annotations[func.Key()];
    ann.requires_raw.insert(ann.requires_raw.end(), func.requires_args.begin(),
                            func.requires_args.end());
    ann.acquire_raw.insert(ann.acquire_raw.end(), func.acquire_args.begin(),
                           func.acquire_args.end());
  }

  std::vector<LineIndex> line_indexes;
  line_indexes.reserve(files.size());
  for (const FileState& file : files) line_indexes.emplace_back(file.stripped);

  // Per-key aggregates for the fixpoints.
  std::map<std::string, std::set<std::string>> direct_acquires;
  std::map<std::string, std::set<std::string>> callees;
  std::map<std::string, bool> verify_direct;
  std::vector<std::pair<const FuncInfo*, BodyOut>> bodies;

  for (const FuncInfo& func : out->model.funcs) {
    const std::string key = func.Key();
    // Annotation-declared acquisitions (ACQUIRE/EXCLUDES) count even for
    // declaration-only functions: the annotation is the cross-TU contract.
    std::map<std::string, std::string> param_types;
    for (const auto& [name, type] : func.params) param_types[name] = type;
    for (const std::string& raw : func.acquire_args) {
      std::string id = ResolveMutexExpr(out->model, func.cls, param_types, raw);
      if (!id.empty()) direct_acquires[key].insert(id);
    }
    if (!func.has_body() || func.file_index < 0 ||
        func.file_index >= static_cast<int>(files.size())) {
      continue;
    }
    BodyOut body;
    AnalyzeBody(out->model, annotations, func, files[static_cast<size_t>(func.file_index)].stripped,
                line_indexes[static_cast<size_t>(func.file_index)], &body);
    direct_acquires[key].insert(body.direct_acquires.begin(), body.direct_acquires.end());
    for (const CallSite& call : body.calls) callees[key].insert(call.callee_key);
    verify_direct[key] = verify_direct[key] || body.verify_token;
    bodies.push_back({&func, std::move(body)});
  }

  // Transitive acquisitions: what a call to `key` may end up locking.
  std::map<std::string, std::set<std::string>> trans = direct_acquires;
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [key, callee_set] : callees) {
      std::set<std::string>& mine = trans[key];
      size_t before = mine.size();
      for (const std::string& callee : callee_set) {
        auto it = trans.find(callee);
        if (it != trans.end()) mine.insert(it->second.begin(), it->second.end());
      }
      changed = changed || mine.size() != before;
    }
  }

  // A function verifies a checksum if its own body mentions crc32/Checksummed
  // or it calls (transitively) one that does.
  std::map<std::string, bool> verified = verify_direct;
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [key, callee_set] : callees) {
      if (verified[key]) continue;
      for (const std::string& callee : callee_set) {
        if (verified[callee]) {
          verified[key] = true;
          changed = true;
          break;
        }
      }
    }
  }

  // Collect edges: direct nestings from bodies, plus held-across-call edges
  // through the transitive-acquisition sets.
  std::map<std::pair<std::string, std::string>, LockEdge> dedup;
  auto add_edge = [&dedup](const LockEdge& edge) {
    auto [it, inserted] = dedup.insert({{edge.from, edge.to}, edge});
    if (!inserted) {
      LockEdge& existing = it->second;
      if (std::tie(edge.path, edge.line) < std::tie(existing.path, existing.line)) {
        existing = edge;
      }
    }
  };
  for (const auto& [func, body] : bodies) {
    (void)func;  // qsteer-lint: allow(unchecked-status) structured binding, not a Status
    for (const LockEdge& edge : body.edges) add_edge(edge);
    for (const CallSite& call : body.calls) {
      if (call.held.empty()) continue;
      auto it = trans.find(call.callee_key);
      if (it == trans.end()) continue;
      for (const std::string& target : it->second) {
        for (const std::string& held : call.held) {
          if (held == target) continue;
          add_edge({held, target, func->path, call.line});
        }
      }
    }
  }
  for (const auto& [key, edge] : dedup) {
    (void)key;  // qsteer-lint: allow(unchecked-status) structured binding, not a Status
    out->edges.push_back(edge);
  }

  // Per-file QL007/QL009/QL010 candidates.
  for (const auto& [func, body] : bodies) {
    for (const Ql7Site& site : body.ql7) out->ql7_by_path[func->path].push_back(site);
    for (int line : body.to_string_lines) out->ql9_tostring_by_path[func->path].push_back(line);
    if (body.raw_read && IsRecoveryNamed(func->name) && !verified[func->Key()]) {
      out->ql10_by_path[func->path].push_back({func->line, func->name});
    }
  }

  // Cycle detection over the deduped graph.
  std::map<std::string, std::vector<const LockEdge*>> adjacency;
  for (const LockEdge& edge : out->edges) adjacency[edge.from].push_back(&edge);
  std::map<std::string, int> color;  // 0 unvisited, 1 on stack, 2 done
  std::vector<const LockEdge*> stack;
  std::set<std::string> reported_cycles;
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    auto it = adjacency.find(node);
    if (it != adjacency.end()) {
      for (const LockEdge* edge : it->second) {
        if (color[edge->to] == 1) {
          // Back edge: reconstruct the cycle from the stack.
          std::vector<std::string> nodes;
          size_t start = 0;
          for (size_t j = 0; j < stack.size(); ++j) {
            if (stack[j]->from == edge->to) start = j;
          }
          for (size_t j = start; j < stack.size(); ++j) nodes.push_back(stack[j]->from);
          nodes.push_back(node);
          std::string canonical;
          {
            std::vector<std::string> sorted_nodes = nodes;
            std::sort(sorted_nodes.begin(), sorted_nodes.end());
            for (const std::string& n : sorted_nodes) canonical += n + "|";
          }
          if (reported_cycles.insert(canonical).second) {
            std::string message = "lock-order cycle: ";
            for (const std::string& n : nodes) message += n + " -> ";
            message += edge->to;
            message += " (this acquisition closes the cycle; one consistent order "
                       "must be picked and recorded in the lock hierarchy)";
            out->graph_findings.push_back(
                {edge->path, edge->line, "QL008", "lock-order", message});
          }
        } else if (color[edge->to] == 0) {
          stack.push_back(edge);
          dfs(edge->to);
          stack.pop_back();
        }
      }
    }
    color[node] = 2;
  };
  for (const auto& [node, edges_from] : adjacency) {
    (void)edges_from;  // qsteer-lint: allow(unchecked-status) structured binding, not a Status
    if (color[node] == 0) dfs(node);
  }

  // Golden comparison: the extracted graph must match the checked-in
  // hierarchy exactly, so every new nesting is reviewed in the diff.
  if (!options.lock_hierarchy_golden.empty()) {
    std::map<std::pair<std::string, std::string>, int> golden;  // edge -> golden line
    {
      int line_number = 0;
      for (std::string_view line : SplitLines(options.lock_hierarchy_golden)) {
        ++line_number;
        std::string trimmed = Trim(line);
        if (trimmed.empty() || trimmed[0] == '#') continue;
        size_t arrow = trimmed.find(" -> ");
        if (arrow == std::string::npos) continue;
        golden[{Trim(trimmed.substr(0, arrow)), Trim(trimmed.substr(arrow + 4))}] = line_number;
      }
    }
    for (const LockEdge& edge : out->edges) {
      if (golden.count({edge.from, edge.to})) continue;
      out->graph_findings.push_back(
          {edge.path, edge.line, "QL008", "lock-order",
           "lock-order edge '" + edge.from + " -> " + edge.to + "' is not in " +
               options.lock_hierarchy_golden_path +
               "; review the new nesting against the hierarchy and regenerate with "
               "--emit-lock-hierarchy"});
    }
    for (const auto& [golden_edge, golden_line] : golden) {
      bool extracted = dedup.count(golden_edge) > 0;
      if (!extracted) {
        out->graph_findings.push_back(
            {options.lock_hierarchy_golden_path, golden_line, "QL008", "lock-order",
             "stale lock-hierarchy edge '" + golden_edge.first + " -> " + golden_edge.second +
                 "': no longer extracted from the sources; regenerate with "
                 "--emit-lock-hierarchy"});
      }
    }
  }
}

// ---- Per-file rules (QL001–QL007, QL009, QL010 emission) ---------------

/// Curated allowlist for intentional nondeterminism in tests: chaos suites
/// exercise real crash/kill windows and may legitimately touch patterns the
/// deterministic layers ban. Each entry is (path suffix, rule id) and must
/// stay narrowly scoped — widen with a directive + justification instead.
struct TestAllowEntry {
  const char* path_suffix;
  const char* rule_id;
};
constexpr TestAllowEntry kTestAllowlist[] = {
    // (no entries needed today; the suites are deterministic end to end —
    // kept so the mechanism is exercised by lint_test and ready when a
    // chaos test genuinely needs ambient time or entropy)
    {"tests/.lint_allow_example.cc", "QL002"},
};

bool TestAllowlisted(const std::string& path, const std::string& rule_id) {
  for (const TestAllowEntry& entry : kTestAllowlist) {
    std::string_view suffix(entry.path_suffix);
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        rule_id == entry.rule_id) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> LintOneFile(const FileState& file, const LintOptions& options,
                                 const GlobalAnalysis& global,
                                 const std::vector<std::string_view>& extra_ql3_sources,
                                 std::string_view raw_content) {
  const std::string& path = file.path;
  const std::string& stripped = file.stripped;
  const std::vector<std::string_view> raw_lines = SplitLines(raw_content);
  const std::vector<std::string_view> stripped_lines = SplitLines(stripped);
  Directives directives = ParseDirectives(path, raw_lines, stripped_lines);

  std::vector<Finding> findings = std::move(directives.findings);
  auto Suppressed = [&directives](int line, const std::string& rule_id) {
    auto it = directives.allow.find(line);
    return it != directives.allow.end() && it->second.count(rule_id) > 0;
  };
  auto Emit = [&](int line, const char* id, const std::string& message) {
    if (Suppressed(line, id)) return;
    if (options.builtin_allowlists && TestAllowlisted(path, id)) return;
    findings.push_back({path, line, id, RuleNamesById().at(id), message});
  };

  const bool ql001_allowlisted =
      options.builtin_allowlists &&
      (PathContains(path, "common/random.") || PathContains(path, "bench/"));
  const bool ql002_allowlisted = options.builtin_allowlists && PathContains(path, "bench/");
  const bool ql005_applies = PathContains(path, "src/core/") ||
                             PathContains(path, "src/optimizer/") ||
                             PathContains(path, "src/service/");

  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    std::string_view line = stripped_lines[i];
    int lineno = static_cast<int>(i) + 1;

    // QL001: ambient randomness. Every random draw must flow from a seeded
    // Pcg32 (common/random.h) so runs are reproducible bit-for-bit.
    if (!ql001_allowlisted) {
      if (line.find("std::random_device") != std::string_view::npos) {
        Emit(lineno, "QL001",
             "std::random_device is ambient entropy; derive seeds from the "
             "experiment seed (common/random.h)");
      } else if (ContainsWordCall(line, "rand", /*require_paren=*/true) ||
                 ContainsWordCall(line, "srand", /*require_paren=*/true)) {
        Emit(lineno, "QL001",
             "rand()/srand() draw from hidden global state; use a seeded Pcg32 "
             "(common/random.h)");
      }
    }

    // QL002: wall clocks. Time-dependent control flow diverges run to run;
    // simulated time and seeded costs keep experiments reproducible.
    if (!ql002_allowlisted) {
      if (line.find("_clock::now") != std::string_view::npos ||
          ContainsWordCall(line, "gettimeofday", /*require_paren=*/true) ||
          ContainsWordCall(line, "clock_gettime", /*require_paren=*/true) ||
          ContainsWordCall(line, "time", /*require_paren=*/true)) {
        Emit(lineno, "QL002",
             "wall-clock read in library code; gate behavior on simulated time "
             "or suppress with a justification if this is observability-only");
      }
    }

    // QL004: raw-pointer ordering. Addresses differ across runs, so any
    // pointer-keyed ordered container iterates in a nondeterministic order.
    {
      static const struct {
        const char* needle;
        const char* what;
      } kPointerPatterns[] = {
          {"std::set<", "std::set keyed by pointer"},
          {"std::map<", "std::map keyed by pointer"},
          {"std::less<", "std::less over pointers"},
      };
      for (const auto& pattern : kPointerPatterns) {
        size_t pos = line.find(pattern.needle);
        if (pos == std::string_view::npos) continue;
        // First template argument only: scan to the first ',' or matching
        // '>' and look for a '*' (pointer key).
        size_t cursor = pos + std::char_traits<char>::length(pattern.needle);
        int depth = 1;
        bool pointer_key = false;
        for (; cursor < line.size() && depth > 0; ++cursor) {
          char c = line[cursor];
          if (c == '<') ++depth;
          if (c == '>') --depth;
          if (depth == 1 && c == ',') break;
          if (depth == 1 && c == '*') pointer_key = true;
        }
        if (pointer_key) {
          Emit(lineno, "QL004",
               std::string(pattern.what) +
                   ": iteration order follows allocation addresses, which differ "
                   "every run; key by a stable id instead");
          break;
        }
      }
      if (line.find(".get()") != std::string_view::npos) {
        size_t first = line.find(".get()");
        size_t lt = line.find('<', first + 6);
        if (lt != std::string_view::npos && lt + 1 < line.size() && line[lt + 1] != '<' &&
            line[lt - 1] != '<' && line.find(".get()", lt) != std::string_view::npos) {
          Emit(lineno, "QL004",
               "comparing smart-pointer addresses orders by allocation, which "
               "differs every run; compare a stable id instead");
        }
      }
    }

    // QL005: the deterministic layers must not even include entropy/clock
    // headers — a banned include is a banned dependency, used or not.
    if (ql005_applies) {
      size_t hash = line.find('#');
      if (hash != std::string_view::npos &&
          line.find("include", hash) != std::string_view::npos) {
        for (std::string_view banned : {"<random>", "<ctime>", "<time.h>", "<sys/time.h>"}) {
          if (line.find(banned) != std::string_view::npos) {
            Emit(lineno, "QL005",
                 "#include " + std::string(banned) +
                     " is banned in src/core, src/optimizer, and src/service; "
                     "these layers must stay deterministic");
          }
        }
      }
    }
  }

  // QL003: iterating an unordered container feeds implementation-defined
  // order into whatever the loop body does. In files that serialize, that
  // order can leak into bytes; require either a visible sort in the
  // neighborhood or a `sorted` marker explaining why order cannot matter.
  if (IsOrderSensitive(stripped)) {
    std::map<std::string, int> decl_lines;
    std::set<std::string> container_names = UnorderedContainerNames(stripped, &decl_lines);
    for (std::string_view extra : extra_ql3_sources) {
      std::map<std::string, int> extra_lines;
      std::set<std::string> extra_names = UnorderedContainerNames(extra, &extra_lines);
      container_names.insert(extra_names.begin(), extra_names.end());
    }
    for (const RangeFor& range_for : FindRangeFors(stripped)) {
      bool unordered = container_names.count(range_for.range_ident) > 0;
      if (!unordered) {
        // Cross-file half: a member declared unordered in *any* linted file
        // (every declaring class must agree, so an ordered same-named member
        // elsewhere vetoes the match).
        auto owners = global.model.member_owners.find(range_for.range_ident);
        if (owners != global.model.member_owners.end() && !owners->second.empty()) {
          unordered = true;
          for (const auto& [cls, type] : owners->second) {
            (void)cls;  // structured binding, not a Status
            if (type.find("unordered_") == std::string::npos) unordered = false;
          }
        }
      }
      if (!unordered) continue;
      bool sorted_nearby = false;
      int window_begin = std::max(0, range_for.line - 4);
      int window_end =
          std::min(static_cast<int>(stripped_lines.size()), range_for.line + 15);
      for (int j = window_begin; j < window_end; ++j) {
        std::string_view nearby = stripped_lines[static_cast<size_t>(j)];
        if (nearby.find("std::sort") != std::string_view::npos ||
            nearby.find("std::stable_sort") != std::string_view::npos) {
          sorted_nearby = true;
          break;
        }
      }
      if (sorted_nearby) continue;
      Emit(range_for.line, "QL003",
           "iterates unordered container '" + range_for.range_ident +
               "' in a file that serializes state; sort before emitting, or mark "
               "`// qsteer-lint: sorted <why order cannot matter>`");
    }
  }

  // QL007: dropped Status/Result. A bare dropped call is a finding that no
  // directive can silence — the discard itself must be written `(void)call;`
  // with an allow(unchecked-status) justification on the same line.
  if (auto it = global.ql7_by_path.find(path); it != global.ql7_by_path.end()) {
    for (const Ql7Site& site : it->second) {
      if (site.void_cast) {
        Emit(site.line, "QL007",
             "explicitly discarded Status from '" + site.callee +
                 "' without a justification; add `// qsteer-lint: "
                 "allow(unchecked-status) <why best-effort is safe here>`");
      } else if (!(options.builtin_allowlists && TestAllowlisted(path, "QL007"))) {
        // Deliberately not suppressible by a directive alone: write the
        // discard out as (void) so it is visible at the call site.
        findings.push_back(
            {path, site.line, "QL007", "unchecked-status",
             "call to '" + site.callee +
                 "' silently drops its Status/Result; handle it, or discard "
                 "explicitly with `(void)` plus `// qsteer-lint: "
                 "allow(unchecked-status) <why>`"});
      }
    }
  }

  // QL009: bytes written through the durable-serialization helpers must
  // round-trip doubles bit-exactly; %.17g is the one blessed format.
  bool serializes = ContainsWordCall(stripped, "AtomicWriteFile", /*require_paren=*/true) ||
                    ContainsWordCall(stripped, "WriteArtifact", /*require_paren=*/true);
  if (!serializes) {
    for (const FuncInfo& func : global.model.funcs) {
      if (func.path == path && func.has_body() &&
          func.name.find("Serialize") != std::string::npos) {
        serializes = true;
        break;
      }
    }
  }
  if (serializes) {
    std::set<std::pair<int, std::string>> reported_specs;
    for (const Literal& literal : ExtractStringLiterals(raw_content)) {
      // Scan-side formats (%lg under sscanf) parse back whatever %.17g
      // wrote losslessly; only the *writing* side loses bits. The call may
      // start a couple of lines above a wrapped format literal.
      {
        bool scan_side = false;
        for (int j = std::max(1, literal.line - 2); j <= literal.line; ++j) {
          if (j <= static_cast<int>(stripped_lines.size()) &&
              stripped_lines[static_cast<size_t>(j - 1)].find("scanf") !=
                  std::string_view::npos) {
            scan_side = true;
          }
        }
        if (scan_side) continue;
      }
      for (size_t i = 0; i < literal.text.size(); ++i) {
        if (literal.text[i] != '%') continue;
        if (i + 1 < literal.text.size() && literal.text[i + 1] == '%') {
          ++i;
          continue;
        }
        size_t j = i + 1;
        while (j < literal.text.size() &&
               std::string_view("-+ #0123456789.*'hlLqjzt").find(literal.text[j]) !=
                   std::string_view::npos) {
          ++j;
        }
        if (j < literal.text.size() &&
            std::string_view("fFeEgGaA").find(literal.text[j]) != std::string_view::npos) {
          std::string spec = literal.text.substr(i, j - i + 1);
          if (spec != "%.17g" && reported_specs.insert({literal.line, spec}).second) {
            Emit(literal.line, "QL009",
                 "float format '" + spec +
                     "' in a file that writes durable bytes; use %.17g so doubles "
                     "survive a write/read round trip bit-exactly");
          }
        }
      }
    }
    if (auto it = global.ql9_tostring_by_path.find(path);
        it != global.ql9_tostring_by_path.end()) {
      for (int line : it->second) {
        Emit(line, "QL009",
             "std::to_string on a floating value truncates to 6 digits and "
             "breaks byte determinism; format with %.17g instead");
      }
    }
  }

  // QL010: recovery paths that read raw bytes must verify a checksum before
  // trusting them (directly or via a verifying helper).
  if (auto it = global.ql10_by_path.find(path); it != global.ql10_by_path.end()) {
    for (const Ql10Site& site : it->second) {
      Emit(site.line, "QL010",
           "'" + site.func_name +
               "' reads raw bytes from disk but neither verifies a crc32 nor "
               "calls a checksum-verifying helper; recovery paths must not "
               "trust unverified bytes (or carry allow(crc-before-trust) "
               "with a justification)");
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule_id < b.rule_id;
  });
  return findings;
}

bool ExcludedFromLint(const std::string& path, const LintOptions& options) {
  // The linter's own sources spell the banned patterns out; self-exemption
  // keeps it from eating itself. (Fixture files are excluded one level up,
  // in LintPaths' directory walk: naming a fixture explicitly still lints
  // it, which is exactly what lint_test and the CLI contract tests do.)
  (void)options;
  return Basename(path).rfind("qsteer_lint", 0) == 0;
}

std::vector<Finding> LintFilesImpl(const std::vector<FileInput>& files,
                                   const std::vector<FileInput>& model_extra,
                                   const LintOptions& options,
                                   std::vector<LockEdge>* lock_edges) {
  std::vector<FileState> states;
  std::vector<std::string_view> raw_contents;  // parallel to states
  for (const FileInput& input : files) {
    if (ExcludedFromLint(input.path, options)) continue;
    states.push_back({input.path, StripCommentsAndStrings(input.content), true});
    raw_contents.push_back(input.content);
  }
  for (const FileInput& input : model_extra) {
    if (ExcludedFromLint(input.path, options)) continue;
    states.push_back({input.path, StripCommentsAndStrings(input.content), false});
    raw_contents.push_back(input.content);
  }

  GlobalAnalysis global;
  RunGlobalAnalysis(states, options, &global);

  // Sibling headers contribute QL003 container declarations to their .cc.
  std::map<std::string, size_t> state_by_path;
  for (size_t i = 0; i < states.size(); ++i) state_by_path[states[i].path] = i;

  std::vector<Finding> findings;
  for (size_t i = 0; i < states.size(); ++i) {
    if (!states[i].lint) continue;
    std::vector<std::string_view> extra_ql3;
    std::filesystem::path as_path(states[i].path);
    std::string ext = as_path.extension().string();
    if (ext == ".cc" || ext == ".cpp" || ext == ".cxx") {
      std::filesystem::path header = as_path;
      header.replace_extension(".h");
      auto it = state_by_path.find(header.string());
      if (it != state_by_path.end()) extra_ql3.push_back(states[it->second].stripped);
    }
    // Companion model-only inputs (LintContent's companion_decls) also feed
    // QL003 names, preserving the v1 sibling-header contract.
    for (size_t j = 0; j < states.size(); ++j) {
      if (!states[j].lint && states[j].path != states[i].path) {
        extra_ql3.push_back(states[j].stripped);
      }
    }
    std::vector<Finding> file_findings =
        LintOneFile(states[i], options, global, extra_ql3, raw_contents[i]);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  findings.insert(findings.end(), global.graph_findings.begin(), global.graph_findings.end());

  std::sort(global.edges.begin(), global.edges.end(), [](const LockEdge& a, const LockEdge& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  });
  if (lock_edges != nullptr) *lock_edges = global.edges;

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule_id) < std::tie(b.path, b.line, b.rule_id);
  });
  return findings;
}

}  // namespace

std::vector<Finding> LintContent(const std::string& path, std::string_view content,
                                 const LintOptions& options,
                                 std::string_view companion_decls) {
  std::vector<FileInput> files = {{path, std::string(content)}};
  std::vector<FileInput> extra;
  if (!companion_decls.empty()) {
    extra.push_back({"<companion>", std::string(companion_decls)});
  }
  return LintFilesImpl(files, extra, options, nullptr);
}

std::vector<Finding> LintFiles(const std::vector<FileInput>& files, const LintOptions& options,
                               std::vector<LockEdge>* lock_edges) {
  return LintFilesImpl(files, {}, options, lock_edges);
}

std::string FormatLockHierarchy(const std::vector<LockEdge>& edges) {
  std::ostringstream out;
  out << "# Lock-acquisition hierarchy, extracted by qsteer_lint (QL008).\n"
      << "# \"A -> B\" means mutex A is held at some call site while B is acquired;\n"
      << "# the graph must stay acyclic and must match this file exactly.\n"
      << "# Regenerate after an intentional nesting change with:\n"
      << "#   qsteer_lint --emit-lock-hierarchy src tools bench examples tests "
         "> tools/lock_hierarchy.txt\n";
  std::set<std::pair<std::string, std::string>> sorted_edges;
  for (const LockEdge& edge : edges) sorted_edges.insert({edge.from, edge.to});
  for (const auto& [from, to] : sorted_edges) out << from << " -> " << to << "\n";
  return out.str();
}

namespace {

bool HasLintableExtension(const std::filesystem::path& path) {
  std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" || ext == ".cxx";
}

bool ReadFile(const std::string& path, std::string* content, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = buffer.str();
  return true;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool LintPaths(const std::vector<std::string>& paths, const LintOptions& options,
               std::vector<Finding>* findings, std::string* error,
               std::vector<LockEdge>* lock_edges) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path, ec)) {
        if (!entry.is_regular_file() || !HasLintableExtension(entry.path())) continue;
        std::string file = entry.path().string();
        // Fixtures deliberately violate every rule; directory walks skip
        // them (naming one explicitly still lints it).
        if (options.builtin_allowlists && PathContains(file, "lint_fixtures/")) continue;
        files.push_back(std::move(file));
      }
      if (ec) {
        *error = "cannot walk " + path + ": " + ec.message();
        return false;
      }
    } else if (std::filesystem::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      *error = "no such file or directory: " + path;
      return false;
    }
  }
  // Directory iteration order is platform-defined; findings must not be.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::set<std::string> in_set(files.begin(), files.end());
  std::vector<FileInput> inputs;
  std::vector<FileInput> model_extra;
  for (const std::string& file : files) {
    FileInput input;
    input.path = file;
    if (!ReadFile(file, &input.content, error)) return false;
    inputs.push_back(std::move(input));
    // A .cc linted on its own still sees its sibling header's declarations
    // (members, annotations, Status signatures) through the model.
    std::filesystem::path as_path(file);
    std::string ext = as_path.extension().string();
    if (ext == ".cc" || ext == ".cpp" || ext == ".cxx") {
      std::filesystem::path header = as_path;
      header.replace_extension(".h");
      std::error_code ec;
      if (!in_set.count(header.string()) && std::filesystem::is_regular_file(header, ec)) {
        FileInput companion;
        companion.path = header.string();
        std::string ignored_error;
        if (ReadFile(header.string(), &companion.content, &ignored_error)) {
          model_extra.push_back(std::move(companion));
        }
      }
    }
  }
  std::vector<Finding> all = LintFilesImpl(inputs, model_extra, options, lock_edges);
  findings->insert(findings->end(), all.begin(), all.end());
  return true;
}

int RunLintMain(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  LintOptions options;
  bool json = false;
  bool emit_hierarchy = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format=text") {
      json = false;
    } else if (arg == "--format=json" || arg == "--json") {
      json = true;
    } else if (arg == "--no-builtin-allowlist") {
      options.builtin_allowlists = false;
    } else if (arg == "--emit-lock-hierarchy") {
      emit_hierarchy = true;
    } else if (arg.rfind("--lock-hierarchy=", 0) == 0) {
      options.lock_hierarchy_golden_path = arg.substr(std::string("--lock-hierarchy=").size());
      std::string golden_error;
      if (!ReadFile(options.lock_hierarchy_golden_path, &options.lock_hierarchy_golden,
                    &golden_error)) {
        err << "qsteer_lint: " << golden_error << "\n";
        return 2;
      }
      if (options.lock_hierarchy_golden.empty()) options.lock_hierarchy_golden = "\n";
    } else if (arg == "--list-rules") {
      for (const auto& [id, name] : RuleNamesById()) out << id << "  " << name << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      out << "usage: qsteer_lint [--format=text|json] [--no-builtin-allowlist]\n"
             "                   [--lock-hierarchy=<golden>] [--emit-lock-hierarchy]\n"
             "                   [--list-rules] <path>...\n"
             "Lints C++ sources for determinism and invariant hazards. Exit 0 = clean,\n"
             "1 = findings, 2 = usage/IO error. --emit-lock-hierarchy prints the\n"
             "extracted lock graph in tools/lock_hierarchy.txt format and exits 0.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "qsteer_lint: unknown flag: " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    err << "qsteer_lint: no paths given (try --help)\n";
    return 2;
  }
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;
  std::string error;
  if (!LintPaths(paths, options, &findings, &error, &edges)) {
    err << "qsteer_lint: " << error << "\n";
    return 2;
  }
  if (emit_hierarchy) {
    out << FormatLockHierarchy(edges);
    return 0;
  }
  if (json) {
    out << "[";
    for (size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      out << (i == 0 ? "" : ",") << "\n  {\"path\": \"" << JsonEscape(f.path)
          << "\", \"line\": " << f.line << ", \"rule\": \"" << JsonEscape(f.rule_id)
          << "\", \"name\": \"" << JsonEscape(f.rule_name) << "\", \"message\": \""
          << JsonEscape(f.message) << "\"}";
    }
    out << (findings.empty() ? "]\n" : "\n]\n");
  } else {
    for (const Finding& f : findings) {
      out << f.path << ":" << f.line << ": " << f.rule_id << " [" << f.rule_name
          << "] " << f.message << "\n";
    }
    if (!findings.empty()) {
      out << findings.size() << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
    }
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace lint
}  // namespace qsteer
