/**
 * @file
 * Status and error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a simulator bug.
 *            Aborts so a debugger or core dump can inspect the state.
 * fatal()  - the simulation cannot continue because of a user-level
 *            problem (bad configuration, malformed workload source).
 *            Exits with status 1.  The message is the user's to act
 *            on, so it carries no source location; panics keep theirs.
 * warn()   - something is suspicious but the run can continue.
 * inform() - plain status output for the user.
 */

#ifndef PE_SUPPORT_STATUS_HH
#define PE_SUPPORT_STATUS_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace pe
{

/** Exception thrown by fatal() so that tests can observe user errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{

/** Concatenate a parameter pack into one string via an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a simulator-bug message. */
template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line,
                      detail::concat(std::forward<Args>(args)...));
}

/** Throw a FatalError "fatal: <message>" for a user-level problem. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Globally silence warn()/inform() (used by benches for clean tables). */
void setQuiet(bool quiet);
bool quiet();

#define pe_panic(...) ::pe::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define pe_fatal(...) ::pe::fatal(__VA_ARGS__)

/** Assert a simulator invariant; compiled in all build types. */
#define pe_assert(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::pe::panicAt(__FILE__, __LINE__, "assertion failed: ",       \
                          #cond, " ", ##__VA_ARGS__);                     \
        }                                                                 \
    } while (0)

} // namespace pe

#endif // PE_SUPPORT_STATUS_HH
