// Warning log for the simulator.
//
// Everything the simulator reports on its own is a warning: an input
// it refused or a fault it detected. The logger is process-global and
// thread-safe (each line is a single fwrite).
#pragma once

#include <string>

namespace vfpga::log {

/// Emit one `[WARN ] <subsystem>: <message>` line to stderr. Not
/// printf-style on purpose: callers format with std::string/format
/// helpers so the call site is type-safe.
void warn(const char* subsystem, const std::string& message);

}  // namespace vfpga::log

#define VFPGA_WARN(subsystem, message) ::vfpga::log::warn(subsystem, message)
