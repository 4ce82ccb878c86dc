#pragma once
/// \file checks.hpp
/// Factories for the project checks; build_registry() (registry.cpp) wires
/// them together. One factory per check keeps each rule in its own
/// translation unit with its origin story at the top of the file.

#include <memory>
#include <string>
#include <vector>

#include "../check.hpp"

namespace stkde::lint {

std::unique_ptr<Check> make_raw_mutex_check();
std::unique_ptr<Check> make_checked_io_check();
std::unique_ptr<Check> make_determinism_check();
std::unique_ptr<Check> make_float_key_check();
std::unique_ptr<Check> make_wire_cast_check();
std::unique_ptr<Check> make_omp_runtime_check();
/// \p known_checks: every registered name, so allow(<typo>) is rejected.
std::unique_ptr<Check> make_suppression_audit_check(
    std::vector<std::string> known_checks);

}  // namespace stkde::lint
