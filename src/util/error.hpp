#pragma once

#include <string>

namespace acx {

// The error taxonomy the whole execution layer is built on:
//  - transient: the same operation may succeed if retried (I/O blips,
//    injected write/rename faults). Retried with capped exponential
//    backoff by the stage runner.
//  - poison: deterministic for this record (malformed file, crash on a
//    specific input). Never retried; the record is quarantined and the
//    event run continues with the survivors.
enum class ErrorClass { kTransient, kPoison };

inline const char* to_string(ErrorClass c) {
  return c == ErrorClass::kTransient ? "transient" : "poison";
}

struct IoError {
  enum class Code {
    kNotFound,
    kOpenFailed,
    kReadFailed,
    kWriteFailed,
    kRenameFailed,
    kCreateDirFailed,
    kRemoveFailed,
    kListFailed,
    kInjectedReadFault,
    kInjectedWriteFault,
    kInjectedRenameFault,
    kInjectedMkdirFault,
    kInjectedListFault,
    kInjectedRemoveFault,
    kGraphInvalid,  // stage graph failed its structural audit
    kCircuitOpen,   // storage circuit breaker is shedding load
    // Two input directories flatten to one event id (tree discovery;
    // fails the whole run, never a record).
    kEventIdCollision,
  };

  Code code{};
  ErrorClass klass = ErrorClass::kTransient;
  std::string path;
  std::string detail;

  std::string to_string() const;
};

// Short filesystem-safe identifier, used in quarantine file names and
// run_report.json ("io.write_failed", ...).
inline const char* slug(IoError::Code c) {
  switch (c) {
    case IoError::Code::kNotFound: return "not_found";
    case IoError::Code::kOpenFailed: return "open_failed";
    case IoError::Code::kReadFailed: return "read_failed";
    case IoError::Code::kWriteFailed: return "write_failed";
    case IoError::Code::kRenameFailed: return "rename_failed";
    case IoError::Code::kCreateDirFailed: return "create_dir_failed";
    case IoError::Code::kRemoveFailed: return "remove_failed";
    case IoError::Code::kListFailed: return "list_failed";
    case IoError::Code::kInjectedReadFault: return "injected_read_fault";
    case IoError::Code::kInjectedWriteFault: return "injected_write_fault";
    case IoError::Code::kInjectedRenameFault: return "injected_rename_fault";
    case IoError::Code::kInjectedMkdirFault: return "injected_mkdir_fault";
    case IoError::Code::kInjectedListFault: return "injected_list_fault";
    case IoError::Code::kInjectedRemoveFault: return "injected_remove_fault";
    case IoError::Code::kGraphInvalid: return "graph_invalid";
    case IoError::Code::kCircuitOpen: return "circuit_open";
    case IoError::Code::kEventIdCollision: return "event_id_collision";
  }
  return "unknown";
}

// The family-qualified reason slug an IoError contributes to quarantine
// names and run reports. Most I/O errors are "io.<slug>"; breaker
// rejections are "storage.circuit_open" — a storage-layer condition,
// not a property of the individual operation (pipeline/reasons.hpp
// registers the storage.* family separately).
inline std::string reason_slug(const IoError& e) {
  if (e.code == IoError::Code::kCircuitOpen) return "storage.circuit_open";
  return std::string("io.") + slug(e.code);
}

inline std::string IoError::to_string() const {
  std::string s = reason_slug(*this);
  s += " [";
  s += acx::to_string(klass);
  s += "] ";
  s += path;
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

}  // namespace acx
