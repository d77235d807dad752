#include "vfpga/common/log.hpp"

#include <cstdio>

namespace vfpga::log {

void warn(const char* subsystem, const std::string& message) {
  std::string line;
  line.reserve(message.size() + 32);
  line += "[WARN ] ";
  line += subsystem;
  line += ": ";
  line += message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace vfpga::log
