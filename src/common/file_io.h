// Crash-safe file I/O for durable service state.
//
// The failure model is a process crash (or kill -9) at any instruction:
// a plain ofstream rewrite can leave a half-written file that a later load
// mis-parses silently. Two defenses, used together by every durable file
// (store snapshot, compile cache, ranker, discovery outputs):
//
//  * AtomicWriteFile: write to `<path>.tmp`, flush + fsync the file, rename
//    over `path`, fsync the parent directory. Readers see either the old
//    complete content or the new complete content, never a mixture.
//  * The artifact codec (WriteArtifact / ReadArtifact): every file is
//    `<header>\n<body># crc32 <8 hex>\n`. The footer is required, so a file
//    torn by a non-atomic writer, cut short, or damaged at rest is
//    *rejected* at load instead of silently mis-parsed, and the exact
//    header line keeps one format's bytes from loading as another's.
#ifndef QSTEER_COMMON_FILE_IO_H_
#define QSTEER_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace qsteer {

/// Reads the whole file; NotFound when it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Atomically replaces `path` with `content` (temp file + fsync + rename +
/// directory fsync). `sync` = false skips the fsyncs (tests, tmpfs) but
/// keeps the rename atomicity.
Status AtomicWriteFile(const std::string& path, const std::string& content, bool sync = true);

/// Atomically writes `<header>\n<body>` followed by the footer
/// "# crc32 <8 lowercase hex>\n", the crc32 of every byte before it.
Status WriteArtifact(const std::string& path, std::string_view header, std::string_view body,
                     bool sync = true);

/// Reads a WriteArtifact file and returns its body. NotFound passes
/// through; a missing, malformed or mismatching footer is InvalidArgument;
/// a first line other than exactly `header` is FailedPrecondition.
Result<std::string> ReadArtifact(const std::string& path, std::string_view header);

}  // namespace qsteer

#endif  // QSTEER_COMMON_FILE_IO_H_
