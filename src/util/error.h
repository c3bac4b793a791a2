#pragma once

#include <string>

#include "util/check.h"

namespace joinboost {

/// Typed error taxonomy layered over JbError. Callers that need to react to
/// *why* something failed (governance aborts, injected chaos faults, log
/// corruption) catch these; everything else keeps catching JbError and sees
/// the same fail-fast behaviour as before.

/// Why a governed query was aborted.
enum class AbortReason {
  kCancelled,         ///< QueryGuard::Cancel() (or Session::Cancel())
  kDeadlineExceeded,  ///< monotonic deadline passed at a guard check point
  kMemoryBudget,      ///< byte budget exceeded by a tracked allocation
};

inline const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kCancelled:
      return "cancelled";
    case AbortReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case AbortReason::kMemoryBudget:
      return "memory-budget";
  }
  return "unknown";
}

/// Cooperative abort raised at a QueryGuard check point. The engine
/// guarantees the Database stays consistent when one of these unwinds: no
/// partial catalog registration, WAL and version store untouched.
class QueryAborted : public JbError {
 public:
  QueryAborted(AbortReason reason, const std::string& detail)
      : JbError(std::string("query aborted (") + AbortReasonName(reason) +
                "): " + detail),
        reason_(reason) {}
  AbortReason reason() const { return reason_; }

 private:
  AbortReason reason_;
};

/// WAL disk replay found a damaged log: a record whose payload no longer
/// matches its checksum, or a torn tail (the final record was truncated
/// mid-write). Raised instead of replaying garbage.
class WalCorruption : public JbError {
 public:
  enum class Kind {
    kChecksumMismatch,  ///< stored checksum disagrees with the payload bytes
    kTornTail,          ///< file ends inside a record frame
  };
  WalCorruption(Kind kind, const std::string& detail)
      : JbError(std::string("WAL corruption (") +
                (kind == Kind::kChecksumMismatch ? "checksum mismatch"
                                                 : "torn tail") +
                "): " + detail),
        kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Serving admission queue wait exceeded the configured bound
/// (serve_admission_max_wait_ms); the request was rejected instead of
/// blocking indefinitely.
class AdmissionRejected : public JbError {
 public:
  explicit AdmissionRejected(const std::string& detail)
      : JbError("admission rejected: " + detail) {}
};

/// A seeded chaos fault fired at a named injection point (see
/// util/fault_injection.h). Distinct from QueryAborted so chaos tests can
/// tell governance aborts from injected hardware-style failures.
class InjectedFault : public JbError {
 public:
  explicit InjectedFault(const std::string& point)
      : JbError("injected fault at point '" + point + "'"), point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

}  // namespace joinboost
