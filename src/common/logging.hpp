// Warnings on stderr.
//
// The library is a simulation/optimization engine whose results go to
// stdout; the only diagnostic it prints is a warning, one line at a time.
// Thread-safe: each line is written with one call under a mutex, so lines
// from concurrent jobs never interleave.
#pragma once

#include <string>

namespace dragster::common {

/// Writes `[WARN] <message>` as one line to stderr.
void warn(const std::string& message);

}  // namespace dragster::common
