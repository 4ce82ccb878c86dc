#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "util/failpoint.hpp"

namespace stkde::serve {

namespace {

wire::ErrorResponse bad_argument(const char* what) {
  return wire::ErrorResponse{wire::ErrorCode::kBadArgument, what};
}

wire::HealthResponse health_response(const Session& session) {
  const SessionHealth h = session.health();
  wire::HealthResponse resp;
  resp.version = h.served_version;
  resp.head_version = h.head_version;
  resp.state = h.state;
  resp.staleness_ms = h.staleness_ms;
  resp.quarantined = h.quarantined;
  resp.quarantine_dropped = h.quarantine_dropped;
  resp.wal_lag = h.wal_lag;
  return resp;
}

}  // namespace

wire::ResponseMessage execute(const Session& session,
                              const wire::QueryMessage& query,
                              const std::function<bool()>& cancelled) {
  const auto deadline_exceeded = [] {
    return wire::ErrorResponse{wire::ErrorCode::kDeadlineExceeded,
                               "request cancelled during execution"};
  };
  // Hotspot clustering is monolithic (analysis/clusters has no incremental
  // form); one poll before committing to it is the best cancellation point.
  if (std::holds_alternative<wire::HotspotsQuery>(query) && cancelled &&
      cancelled())
    return deadline_exceeded();
  // Health is answerable unconditionally — before the first publish, during
  // a writer stall, always. Dispatch it before the no-data gate.
  if (std::holds_alternative<wire::HealthQuery>(query))
    return health_response(session);
  // Data queries against a session that has never pinned a published
  // version get a typed error, not a silently-zero answer a caller could
  // mistake for a density.
  if (!session.pinned().valid())
    return wire::ErrorResponse{wire::ErrorCode::kUnavailable,
                               "no density version published yet"};
  const std::uint64_t version = session.version();
  return std::visit(
      [&](const auto& q) -> wire::ResponseMessage {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, wire::HealthQuery>) {
          return health_response(session);  // handled above; keeps visit total
        } else if constexpr (std::is_same_v<T, wire::DensityAtQuery>) {
          return wire::DensityAtResponse{version, session.density_at(q.at)};
        } else if constexpr (std::is_same_v<T, wire::RegionQuery>) {
          const double value =
              q.op == wire::RegionOp::kSum
                  ? session.region_sum(q.region)
                  : static_cast<double>(session.region_max(q.region));
          return wire::RegionResponse{version, q.op, value};
        } else if constexpr (std::is_same_v<T, wire::SliceQuery>) {
          try {
            return wire::SliceResponse{version, q.t, session.slice(q.t)};
          } catch (const std::out_of_range&) {
            return bad_argument("slice t outside grid");
          }
        } else if constexpr (std::is_same_v<T, wire::HotspotsQuery>) {
          if (!(q.quantile >= 0.0 && q.quantile <= 1.0))
            return bad_argument("hotspot quantile outside [0, 1]");
          return wire::HotspotsResponse{
              version, session.top_hotspots(q.k, q.quantile)};
        } else {
          static_assert(std::is_same_v<T, wire::RegionGridQuery>);
          try {
            auto grid = session.region_grid(q.region, cancelled);
            if (!grid) return deadline_exceeded();
            wire::RegionGridResponse resp;
            resp.version = version;
            resp.grid = std::move(*grid);
            return resp;
          } catch (const std::invalid_argument&) {
            return bad_argument("region clips to empty");
          }
        }
      },
      query);
}

wire::Frame serve_frame(const Session& session, const std::uint8_t* data,
                        std::size_t size) {
  // A transport's one obligation is an answer frame for every request
  // frame. Anything thrown inside dispatch — including injected faults at
  // the chaos site below — becomes a well-formed kInternal error frame.
  try {
    STKDE_FAILPOINT("serve.frame");
    std::string error;
    const auto query = wire::decode_query(data, size, &error);
    if (!query)
      return wire::encode(wire::ResponseMessage{
          wire::ErrorResponse{wire::ErrorCode::kMalformed, std::move(error)}});
    return wire::encode(execute(session, *query));
  } catch (const std::exception& e) {
    return wire::encode(wire::ResponseMessage{
        wire::ErrorResponse{wire::ErrorCode::kInternal, e.what()}});
  } catch (...) {
    return wire::encode(wire::ResponseMessage{wire::ErrorResponse{
        wire::ErrorCode::kInternal, "unknown server failure"}});
  }
}

}  // namespace stkde::serve
