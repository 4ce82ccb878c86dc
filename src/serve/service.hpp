#pragma once
/// \file service.hpp
/// Density-as-a-service, dispatch: execute decoded wire queries against a
/// session's pinned snapshot, and the frame-in/frame-out entry point a
/// transport would call per request.
///
/// The request model: the caller delimits requests (Session::begin_request
/// re-pins under the session's staleness policy); every frame served
/// between two begin_request() calls is answered from one snapshot
/// version. serve_frame() itself never re-pins — consistency is the
/// session's job, framing is this file's.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace stkde::serve {

/// Execute one decoded query against \p session's pinned snapshot.
/// Unservable arguments (slice t outside the grid, an empty region for a
/// grid query, a quantile outside [0, 1]) come back as ErrorResponse
/// {kBadArgument}. Data queries against a session whose registry has never
/// published come back as ErrorResponse{kUnavailable} — a typed error, not
/// a zero a caller could mistake for a density. HealthQuery is always
/// answered, no matter the registry's state. Valid queries over a published
/// but *empty* stream (n == 0) still return zeros — that is a real answer.
///
/// Cooperative cancellation for the expensive queries: a region-grid scan
/// polls \p cancelled between slabs of X-rows (Session::region_grid) and a
/// hotspot extraction polls it once before clustering; a true poll yields
/// ErrorResponse{kDeadlineExceeded} instead of a result. Cheap/medium
/// queries ignore the token — they finish faster than a poll is worth. An
/// empty \p cancelled never cancels; the overload executor
/// (serve/executor.hpp) passes its deadline and cancel-flag checks.
[[nodiscard]] wire::ResponseMessage execute(
    const Session& session, const wire::QueryMessage& query,
    const std::function<bool()>& cancelled = {});

/// Frame in, frame out: decode, execute, encode. Malformed frames come
/// back as an encoded ErrorResponse{kMalformed} carrying the decode
/// reason; any exception escaping dispatch (fault injection included)
/// becomes an encoded ErrorResponse{kInternal}. This function never throws:
/// every request frame gets an answer frame.
[[nodiscard]] wire::Frame serve_frame(const Session& session,
                                      const std::uint8_t* data,
                                      std::size_t size);

}  // namespace stkde::serve
