#ifndef PBITREE_COMMON_STATUS_H_
#define PBITREE_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace pbitree {

/// \brief Error taxonomy used across the library.
///
/// The library does not throw exceptions on expected failure paths (I/O
/// errors, corrupt input, resource exhaustion); every fallible operation
/// returns a Status (or Result<T>) instead, RocksDB-style.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kCorruption,
  kResourceExhausted,  // e.g., no unpinned frame in the buffer pool
  kOutOfRange,
  kNotSupported,
  kInternal,
  kRetryExhausted,  // a transient I/O fault persisted past the retry budget
  kCancelled,       // cancelled before completion (shutdown, dropped I/O job)
  kSlackExhausted,  // dynamic insert found no free code slot under the
                    // parent — the caller must re-binarize with more slack
  kUnimplemented,   // the operation is meaningful but not built yet
                    // (e.g. mutating a segmented store); callers can
                    // branch on it instead of pattern-matching messages
};

/// \brief Lightweight status object carrying an error code and message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is empty on the hot OK path).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status RetryExhausted(std::string msg) {
    return Status(StatusCode::kRetryExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status SlackExhausted(std::string msg) {
    return Status(StatusCode::kSlackExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsSlackExhausted() const {
    return code_ == StatusCode::kSlackExhausted;
  }
  bool IsUnimplemented() const {
    return code_ == StatusCode::kUnimplemented;
  }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable rendering, e.g. "IOError: short read".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief A value-or-error holder; the moral equivalent of
/// absl::StatusOr<T> without the dependency.
///
/// `StatusOr` is the canonical name; `Result` remains as a deprecated
/// alias for one release so out-of-tree callers keep compiling.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {      // NOLINT(runtime/explicit)
    assert(!status_.ok() && "StatusOr(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  bool has_value() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  /// Returns the held value, or `fallback` on error.
  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? *value_ : static_cast<T>(std::forward<U>(fallback));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Deprecated spelling of StatusOr<T>; prefer StatusOr in new code.
template <typename T>
using Result = StatusOr<T>;

/// Propagates a non-OK status to the caller.
#define PBITREE_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::pbitree::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluates a Result<T> expression and either binds its value or returns
/// the error. `lhs` must be a declaration, e.g. `auto x`.
#define PBITREE_ASSIGN_OR_RETURN(lhs, expr)         \
  PBITREE_ASSIGN_OR_RETURN_IMPL(                    \
      PBITREE_STATUS_CONCAT(_result_, __LINE__), lhs, expr)

#define PBITREE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define PBITREE_STATUS_CONCAT_INNER(a, b) a##b
#define PBITREE_STATUS_CONCAT(a, b) PBITREE_STATUS_CONCAT_INNER(a, b)

}  // namespace pbitree

#endif  // PBITREE_COMMON_STATUS_H_
