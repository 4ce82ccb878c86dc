/// The check registry: one line per project invariant. Keep display order
/// stable — docs/LINT.md's catalog mirrors it.

#include "checks.hpp"

namespace stkde::lint {

Registry build_registry() {
  Registry r;
  r.push_back(make_raw_mutex_check());
  r.push_back(make_checked_io_check());
  r.push_back(make_determinism_check());
  r.push_back(make_float_key_check());
  r.push_back(make_wire_cast_check());
  r.push_back(make_omp_runtime_check());
  std::vector<std::string> names;
  names.reserve(r.size() + 1);
  for (const auto& c : r) names.emplace_back(c->name());
  names.emplace_back("suppression-audit");
  r.push_back(make_suppression_audit_check(std::move(names)));
  return r;
}

}  // namespace stkde::lint
