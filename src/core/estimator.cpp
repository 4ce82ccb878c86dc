#include "core/estimator.hpp"

#include <stdexcept>

namespace stkde {

namespace core {

Result run(Algorithm a, const PointSet& pts, const detail::RunSetup& s,
           const Params& p) {
  p.validate();
  switch (a) {
    case Algorithm::kVB:
      return run_vb(pts, s, p);
    case Algorithm::kVBDec:
      return run_vb_dec(pts, s, p);
    case Algorithm::kPB:
      return run_pb(pts, s, p);
    case Algorithm::kPBDisk:
      return run_pb_disk(pts, s, p);
    case Algorithm::kPBBar:
      return run_pb_bar(pts, s, p);
    case Algorithm::kPBSym:
      return run_pb_sym(pts, s, p);
    case Algorithm::kPBTile:
      return run_pb_tile(pts, s, p);
    case Algorithm::kPBSymDR:
      return run_pb_sym_dr(pts, s, p);
    case Algorithm::kPBSymDD:
      return run_pb_sym_dd(pts, s, p);
    case Algorithm::kPBSymPD:
      return run_pb_sym_pd(pts, s, p);
    case Algorithm::kPBSymPDSched:
    case Algorithm::kPBSymPDRep:
    case Algorithm::kPBSymPDSchedRep:
      return run_pb_sym_pd_dag(pts, s, p, a);
  }
  throw std::invalid_argument("unknown algorithm");
}

}  // namespace core

Result Estimator::run(const PointSet& points, const DomainSpec& dom) const {
  dom.validate();
  return core::run(algorithm_, points,
                   core::detail::RunSetup(points, dom, params_), params_);
}

Result estimate(const PointSet& points, const DomainSpec& dom,
                const Params& params, Algorithm algorithm) {
  return Estimator(algorithm, params).run(points, dom);
}

}  // namespace stkde
