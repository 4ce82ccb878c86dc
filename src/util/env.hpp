#pragma once
/// \file env.hpp
/// Environment-variable configuration used by the bench harness:
///   STKDE_BENCH_SCALE   — global instance down-scaling factor (default 1.0;
///                         larger = smaller instances, 0 < scale)
///   STKDE_BENCH_THREADS — max thread count benches sweep to (default: all)
///   STKDE_BENCH_FAST    — a flag (env_flag): "1"/"true" makes benches use
///                         the smallest preset, ""/"0"/"false" (or unset)
///                         does not

#include <optional>
#include <string>

namespace stkde::util {

/// Raw getenv as optional<string>.
[[nodiscard]] std::optional<std::string> env_string(const std::string& name);

/// Parse env var as double; returns fallback when unset. Throws
/// std::invalid_argument, naming the variable and the value, unless the
/// whole value parses as a double (an empty value throws too).
[[nodiscard]] double env_double(const std::string& name, double fallback);

/// Parse env var as long; returns fallback when unset, throws like
/// env_double unless the whole value parses as a long and fits.
[[nodiscard]] long env_long(const std::string& name, long fallback);

/// Parse env var as a flag: false when unset or "", "0", "false"; true
/// for "1", "true" (either case). Any other value throws
/// std::invalid_argument naming the variable and the value.
[[nodiscard]] bool env_flag(const std::string& name);

/// Number of hardware threads (>= 1).
[[nodiscard]] int hardware_threads();

}  // namespace stkde::util
