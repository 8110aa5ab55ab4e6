// qsteer-lint: the determinism & invariants linter.
//
// The repo's load-bearing invariants are bit-reproducibility (the same
// (job, config, seed) must produce identical bytes on every run, thread
// count, and machine), crc-before-trust on every recovery path, a single
// acyclic lock hierarchy, and never-silently-dropped Status. Clang's
// -Wthread-safety enforces the *locking* half of the concurrency contract
// (see common/thread_annotations.h); this linter enforces the rest,
// catching hazards that type systems cannot:
//
//   QL001 random-source       std::random_device / rand() / srand() outside
//                             the seeded-PRNG module (common/random.*).
//   QL002 wall-clock          *_clock::now(), time(), gettimeofday(),
//                             clock_gettime() outside bench drivers.
//   QL003 unordered-iteration range-for over a std::unordered_{map,set}
//                             declared in the same file, in a file that
//                             serializes state — iteration order is
//                             implementation-defined, so anything emitted
//                             from such a loop must be sorted first.
//   QL004 pointer-ordering    containers ordered by raw pointer value
//                             (std::set<T*>, std::map<T*, ...>,
//                             std::less<T*>) — addresses differ run to run.
//   QL005 banned-include      <random>/<ctime>/<time.h>/<sys/time.h> in
//                             src/core, src/optimizer, src/service: the
//                             deterministic layers must not even link
//                             against ambient entropy or clocks.
//   QL006 bad-suppression     a qsteer-lint directive without a
//                             justification (it suppresses nothing).
//   QL007 unchecked-status    an expression statement that calls a
//                             Status/Result-returning function and drops
//                             the value. Discarding must be explicit:
//                             `(void)Call();` plus an
//                             `allow(unchecked-status)` justification.
//   QL008 lock-order          the global lock-acquisition graph (extracted
//                             from MutexLock sites plus REQUIRES/ACQUIRE/
//                             EXCLUDES annotations across all linted files)
//                             contains a cycle, or diverges from the
//                             checked-in hierarchy golden
//                             (tools/lock_hierarchy.txt).
//   QL009 serialization-contract  in files that write durable bytes:
//                             floating-point formatting that is not %.17g,
//                             or std::to_string over a floating value —
//                             both lose bits, breaking the bytes-
//                             determinism contract that replication, shard
//                             manifests, and ranker persistence rely on.
//                             (The unsorted-container half of the contract
//                             is QL003, extended here to unordered members
//                             declared in *any* linted file.)
//   QL010 crc-before-trust    a function that reads bytes from disk must
//                             verify a crc32 (directly, or by calling a
//                             verifying helper such as ReadArtifact)
//                             before trusting them, or carry a justified
//                             suppression.
//
// QL007, QL008, and the cross-file halves of QL009/QL010 run on a
// two-pass model: pass 1 extracts a lightweight declaration/annotation
// model from every input file (classes, Mutex members, method annotations,
// member/local/parameter types, Status-returning signatures, checksum-
// verifying helpers); pass 2 lints each file against the merged model, so
// a Status dropped in service code is caught even though the callee is
// declared in another translation unit, and lock nestings that only exist
// across a call boundary still land in the hierarchy.
//
// Suppressions are line-scoped and must carry a justification:
//
//   // qsteer-lint: allow(wall-clock) measures real latency for the EWMA
//   // qsteer-lint: sorted keys are sorted two lines above
//
// `allow(<rule>)` accepts a rule id (QL002) or name (wall-clock) and
// applies to its own line, or to the next line when the comment stands
// alone. `sorted` is QL003's specific form. A bare directive without a
// justification does NOT suppress — it raises QL006 instead, so the
// reasoning is always in the diff. QL007 additionally requires the
// discard itself to be explicit: an allow(unchecked-status) directive on a
// *bare* call suppresses nothing; the call must be written `(void)Call()`.
//
// Deliberately not a libclang plugin: a token-level scanner over
// comment/string-stripped source keeps the linter dependency-free, fast
// enough for a pre-commit hook, and trivially testable against fixture
// files (tests/lint_test.cc).
#ifndef QSTEER_TOOLS_QSTEER_LINT_LIB_H_
#define QSTEER_TOOLS_QSTEER_LINT_LIB_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qsteer {
namespace lint {

struct Finding {
  std::string path;
  int line = 0;  // 1-based
  std::string rule_id;    // "QL002"
  std::string rule_name;  // "wall-clock"
  std::string message;
};

/// One lint input: a path (used for reporting and path-scoped rules) and
/// its content. LintFiles builds the cross-file model from every entry.
struct FileInput {
  std::string path;
  std::string content;
};

/// A discovered lock-order edge: `from` is held while `to` is acquired.
/// `path`:`line` is the first witness site (for messages; the golden file
/// stores only the edge so it does not churn with unrelated line moves).
struct LockEdge {
  std::string from;
  std::string to;
  std::string path;
  int line = 0;
};

struct LintOptions {
  /// Apply the built-in path allowlists (common/random.* for QL001, bench/
  /// for QL002, the curated tests/ allowlist, and LintPaths' skip of
  /// lint_fixtures/ during directory walks — a fixture named explicitly is
  /// always linted, which is how lint_test exercises rules in isolation).
  bool builtin_allowlists = true;

  /// When non-empty, the extracted lock graph is compared against this
  /// golden content (the bytes of tools/lock_hierarchy.txt): an edge
  /// missing from the golden, or a golden edge no longer extracted, raises
  /// QL008 so the hierarchy stays reviewed. `golden_path` is used for
  /// reporting.
  std::string lock_hierarchy_golden;
  std::string lock_hierarchy_golden_path = "tools/lock_hierarchy.txt";
};

/// Lints one file's content. `path` is used for reporting and for the
/// path-scoped rules (allowlists, QL005's banned-include directories).
/// Findings are ordered by line. Files whose basename starts with
/// "qsteer_lint" are self-exempt (the linter's own sources spell out the
/// banned patterns) and yield no findings.
///
/// The cross-file model is built from this file plus `companion_decls`
/// alone, so single-file runs (and fixtures) exercise QL007–QL010 with
/// self-contained declarations. `companion_decls` is extra source scanned
/// for declarations only: LintPaths passes the sibling header of a .cc
/// file here, so `for (auto& kv : store_)` in recommender.cc is checked
/// against the `std::unordered_map<...> store_` member in recommender.h.
std::vector<Finding> LintContent(const std::string& path, std::string_view content,
                                 const LintOptions& options = {},
                                 std::string_view companion_decls = {});

/// Two-pass lint over an explicit file set: pass 1 builds the merged
/// declaration/annotation model, pass 2 lints every file against it.
/// Findings are sorted by (path, line, rule). When `lock_edges` is
/// non-null it receives the extracted lock-order graph (sorted), which is
/// also what FormatLockHierarchy serializes into the checked-in golden.
std::vector<Finding> LintFiles(const std::vector<FileInput>& files,
                               const LintOptions& options = {},
                               std::vector<LockEdge>* lock_edges = nullptr);

/// Expands paths (directories recurse over .h/.hpp/.cc/.cpp/.cxx), lints
/// every file through LintFiles, and returns all findings sorted by
/// (path, line). On an unreadable path, returns false and sets *error.
bool LintPaths(const std::vector<std::string>& paths, const LintOptions& options,
               std::vector<Finding>* findings, std::string* error,
               std::vector<LockEdge>* lock_edges = nullptr);

/// Serializes the extracted lock graph as the golden file's bytes: a
/// header comment plus one sorted "A -> B" line per edge. Regenerate with
/// `qsteer_lint --emit-lock-hierarchy <paths> > tools/lock_hierarchy.txt`.
std::string FormatLockHierarchy(const std::vector<LockEdge>& edges);

/// Full CLI: `qsteer_lint [--format=text|json] [--no-builtin-allowlist]
/// [--list-rules] [--lock-hierarchy=<golden>] [--emit-lock-hierarchy]
/// <path>...`. Returns the process exit code:
///   0  no findings (or --emit-lock-hierarchy succeeded);
///   1  findings reported (on `out`, one per line or as a JSON array);
///   2  usage error or unreadable input (message on `err`).
int RunLintMain(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace lint
}  // namespace qsteer

#endif  // QSTEER_TOOLS_QSTEER_LINT_LIB_H_
