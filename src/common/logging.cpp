#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace dragster::common {
namespace {

// draglint:allow(DL006 stderr interleaving guard, not a parallelism primitive)
std::mutex g_write_mutex;

}  // namespace

void warn(const std::string& message) {
  // draglint:allow(DL006 stderr interleaving guard, not a parallelism primitive)
  std::lock_guard<std::mutex> lock(g_write_mutex);
  std::fprintf(stderr, "[WARN] %s\n", message.c_str());
}

}  // namespace dragster::common
