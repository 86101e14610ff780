//===- service/Protocol.h - sks-serve wire protocol ------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol of the sks-serve daemon. One
/// request object per line in, one response object per line out;
/// responses carry the client's "id" verbatim so they can be correlated
/// out of order (the service answers cache hits synchronously and misses
/// whenever their synthesis finishes).
///
/// Request object (flat; unknown keys are rejected so typos fail loudly):
///
///   {"id": 7, "n": 3, "isa": "cmov", "goal": "minlength",
///    "goal_pred": "sort", "backend": "portfolio", "timeout": 10.0,
///    "max_length": 0, "threads": 1}
///
/// "n" is mandatory; everything else defaults as in SynthRequest.
/// "goal_pred" names the goal predicate (machine/Goal.h): sort (default),
/// select-<k>, top-<k>, or partial-sort-<p> with the parameter in 1..n;
/// an unknown name or out-of-range parameter is an error response, never
/// a dropped request. The response carries the SynthOutcome fields plus
/// service attribution:
///
///   {"id": 7, "backend": "enum", "status": "optimal", "seconds": 0.42,
///    "verified": true, "length": 11, "cached": false,
///    "service_seconds": 0.000031, "kernel": "cmp r1 r2\n...",
///    "stats": {"states_expanded": 4242}}
///
/// Parse failures produce {"id": ..., "error": "..."} (id null when it
/// could not be recovered). The parser handles exactly this flat dialect
/// — strings, numbers, booleans, null — and rejects nesting; it exists so
/// the daemon has zero dependencies, not as a general JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SERVICE_PROTOCOL_H
#define SKS_SERVICE_PROTOCOL_H

#include "driver/Backend.h"

#include <string>

namespace sks {

/// A parsed request line: the driver request plus the client correlation
/// id (the raw JSON token — '"abc"' or '7' — echoed verbatim; empty when
/// the client sent none, echoed as null).
struct WireRequest {
  std::string Id;
  SynthRequest Req;
};

/// Parses one request line. \returns false with \p Error set on malformed
/// JSON, unknown keys, or out-of-range values; \p Out.Id is still
/// recovered when possible so the error response can be correlated.
bool parseRequestLine(const std::string &Line, WireRequest &Out,
                      std::string &Error);

/// Renders a response line (no trailing newline) for \p O. \p NumData
/// names the kernel's registers; \p Cached and \p ServiceSeconds report
/// the service-side handling (queueing + lookup + synthesis wall time, as
/// opposed to O.Seconds which is the backend's own run time).
std::string responseLine(const std::string &Id, const SynthOutcome &O,
                         unsigned NumData, bool Cached, double ServiceSeconds);

/// Renders an error response line (no trailing newline).
std::string errorLine(const std::string &Id, const std::string &Message);

/// Backslash-escapes a string for embedding in a JSON string literal
/// (quotes, backslashes, and control characters including newlines).
std::string jsonEscape(const std::string &S);

/// The number rules of the protocol and the sks-synth / sks-serve flags.
/// \returns true when all of \p Text is a plain decimal integer (digits
/// only: no sign, fraction or exponent) of at most \p Max.
bool parseCount(const std::string &Text, unsigned long long Max,
                unsigned long long &Out);

/// \returns true when all of \p Text is a finite, non-negative number.
bool parseNonNegative(const std::string &Text, double &Out);

} // namespace sks

#endif // SKS_SERVICE_PROTOCOL_H
