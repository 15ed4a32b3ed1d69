/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic()  -- an internal invariant was violated (a dlw bug); aborts.
 * fatal()  -- the user asked for something impossible (bad config,
 *             malformed trace file); exits with status 1.
 * warn()   -- something questionable happened but execution continues.
 */

#ifndef DLW_COMMON_LOGGING_HH
#define DLW_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace dlw
{

namespace detail
{

/** Terminate with a panic report; never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate with a fatal (user-error) report; never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

/**
 * Fold a heterogeneous argument pack into one string via operator<<.
 *
 * @param args Values to concatenate.
 * @return The concatenation of all stream-rendered arguments.
 */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace dlw

/** Abort on a broken internal invariant (dlw bug). */
#define dlw_panic(...) \
    ::dlw::detail::panicImpl(__FILE__, __LINE__, \
                             ::dlw::detail::concat(__VA_ARGS__))

/** Exit on an unrecoverable user error (bad input, bad config). */
#define dlw_fatal(...) \
    ::dlw::detail::fatalImpl(__FILE__, __LINE__, \
                             ::dlw::detail::concat(__VA_ARGS__))

/** Warn but keep running. */
#define dlw_warn(...) \
    ::dlw::detail::warnImpl(__FILE__, __LINE__, \
                            ::dlw::detail::concat(__VA_ARGS__))

/** panic() unless the given invariant holds. */
#define dlw_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::dlw::detail::panicImpl(__FILE__, __LINE__, \
                ::dlw::detail::concat("assertion '", #cond, \
                                      "' failed: ", ##__VA_ARGS__)); \
        } \
    } while (0)

#endif // DLW_COMMON_LOGGING_HH
