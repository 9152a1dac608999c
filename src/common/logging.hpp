/**
 * @file
 * Minimal fatal-error facilities, in the spirit of gem5's panic() and
 * fatal(). panic() flags internal invariant violations (a bug in eHDL
 * itself), fatal() flags unusable user input.
 */

#ifndef EHDL_COMMON_LOGGING_HPP_
#define EHDL_COMMON_LOGGING_HPP_

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ehdl {

/** Exception thrown for user-level errors (bad program, bad config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown for internal invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

}  // namespace detail

/** Abort compilation/simulation due to invalid user input. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::formatParts(std::forward<Args>(args)...));
}

/** Abort due to an internal bug; should never fire on valid inputs. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::formatParts(std::forward<Args>(args)...));
}

/**
 * Message severity of the structured Diagnostics sink
 * (common/diagnostics.hpp). Errors make the producing operation fail;
 * warnings and notes never do.
 */
enum class Severity : uint8_t { Note, Warning, Error };

/** Lower-case severity name ("note", "warning", "error"). */
const char *severityName(Severity severity);

}  // namespace ehdl

#endif  // EHDL_COMMON_LOGGING_HPP_
