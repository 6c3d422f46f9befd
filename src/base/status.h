// Status codes used across the simulated machine, the Aegis exokernel, and the
// library operating systems. Kernel paths never throw; fallible operations
// return Status or Result<T> (see result.h), in the style of Zircon's
// zx_status_t.
#ifndef XOK_SRC_BASE_STATUS_H_
#define XOK_SRC_BASE_STATUS_H_

#include <cstdint>

namespace xok {

enum class Status : int32_t {
  kOk = 0,
  // Generic failures.
  kErrInternal = -1,
  kErrInvalidArgs = -2,
  kErrOutOfRange = -3,
  kErrNoResources = -4,
  kErrNotFound = -5,
  kErrAlreadyExists = -6,
  kErrBadState = -7,
  kErrUnsupported = -8,
  kErrIo = -9,  // Device-level transfer failure (media/controller error).
  // Protection failures.
  kErrAccessDenied = -20,   // Capability missing or insufficient rights.
  kErrBadCapability = -21,  // Capability failed self-authentication.
  // Resource-revocation protocol.
  kErrRevoked = -30,
  kErrWouldBlock = -31,
  kErrTimedOut = -32,
  // Downloaded-code safety.
  kErrUnsafeCode = -40,  // Verifier rejected the program.
  kErrCodeLimit = -41,   // Bounded-runtime budget exceeded.
};

}  // namespace xok

#endif  // XOK_SRC_BASE_STATUS_H_
