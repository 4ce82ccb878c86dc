#include "core/config.hpp"

#include <cmath>
#include <stdexcept>

#include "util/env.hpp"

namespace stkde {

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> all = {
      Algorithm::kVB,          Algorithm::kVBDec,
      Algorithm::kPB,          Algorithm::kPBDisk,
      Algorithm::kPBBar,       Algorithm::kPBSym,
      Algorithm::kPBTile,      Algorithm::kPBSymDR,
      Algorithm::kPBSymDD,     Algorithm::kPBSymPD,
      Algorithm::kPBSymPDSched, Algorithm::kPBSymPDRep,
      Algorithm::kPBSymPDSchedRep};
  return all;
}

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kVB: return "VB";
    case Algorithm::kVBDec: return "VB-DEC";
    case Algorithm::kPB: return "PB";
    case Algorithm::kPBDisk: return "PB-DISK";
    case Algorithm::kPBBar: return "PB-BAR";
    case Algorithm::kPBSym: return "PB-SYM";
    case Algorithm::kPBTile: return "PB-TILE";
    case Algorithm::kPBSymDR: return "PB-SYM-DR";
    case Algorithm::kPBSymDD: return "PB-SYM-DD";
    case Algorithm::kPBSymPD: return "PB-SYM-PD";
    case Algorithm::kPBSymPDSched: return "PB-SYM-PD-SCHED";
    case Algorithm::kPBSymPDRep: return "PB-SYM-PD-REP";
    case Algorithm::kPBSymPDSchedRep: return "PB-SYM-PD-SCHED-REP";
  }
  return "?";
}

Algorithm algorithm_by_name(const std::string& name) {
  for (const Algorithm a : all_algorithms())
    if (to_string(a) == name) return a;
  throw std::invalid_argument("unknown algorithm: " + name);
}

bool is_parallel(Algorithm a) {
  switch (a) {
    case Algorithm::kVB:
    case Algorithm::kVBDec:
    case Algorithm::kPB:
    case Algorithm::kPBDisk:
    case Algorithm::kPBBar:
    case Algorithm::kPBSym:
    case Algorithm::kPBTile:
      return false;
    default:
      return true;
  }
}

void Params::validate() const {
  if (!(hs > 0.0) || !std::isfinite(hs))
    throw std::invalid_argument("Params: hs must be finite and > 0");
  if (!(ht > 0.0) || !std::isfinite(ht))
    throw std::invalid_argument("Params: ht must be finite and > 0");
  if (threads < 0) throw std::invalid_argument("Params: threads must be >= 0");
  if (decomp.a < 1 || decomp.b < 1 || decomp.c < 1)
    throw std::invalid_argument("Params: decomposition parts must be >= 1");
  if (tile.tile_bytes <= 0)
    throw std::invalid_argument("Params: tile_bytes must be > 0");
  if (tile.threads < 0)
    throw std::invalid_argument("Params: tile.threads must be >= 0");
}

int Params::resolved_threads() const {
  return threads > 0 ? threads : util::hardware_threads();
}

}  // namespace stkde
