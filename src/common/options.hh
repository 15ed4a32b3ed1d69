/**
 * @file
 * Minimal "--key value" command-line option parser used by the
 * tools.  Unknown keys are tolerated at parse time and surfaced via
 * keys() so a tool can reject typos explicitly.
 */

#ifndef DLW_COMMON_OPTIONS_HH
#define DLW_COMMON_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlw
{

/**
 * Parsed option map with typed, defaulted accessors.
 */
class Options
{
  public:
    /**
     * Parse argv[first..argc).  Every token must be of the form
     * "--key value" or "--key=value"; violations are fatal
     * (user error).
     */
    Options(int argc, char *const *argv, int first);

    /**
     * Grammar pre-check for CLI boundaries that want to turn a
     * malformed command line into a usage error instead of the
     * constructor's fatal: returns a description of the first
     * violation ("option '--x' needs a value"), or the empty
     * string when argv[first..argc) parses cleanly.
     */
    static std::string shapeError(int argc, char *const *argv,
                                  int first);

    /** True when the key was supplied. */
    bool has(const std::string &key) const;

    /** String value or fallback. */
    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /** Double value or fallback (fatal on malformed numbers). */
    double getDouble(const std::string &key, double fallback) const;

    /** Integer value or fallback (fatal on malformed integers). */
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;

    /** Every key supplied on the command line, sorted. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace dlw

#endif // DLW_COMMON_OPTIONS_HH
