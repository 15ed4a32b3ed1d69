#include "common/options.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace dlw
{

Options::Options(int argc, char *const *argv, int first)
{
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (!startsWith(key, "--"))
            dlw_fatal("expected --option, got '", key, "'");
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
            continue;
        }
        if (i + 1 >= argc)
            dlw_fatal("option '", key, "' needs a value");
        values_[key.substr(2)] = argv[++i];
    }
}

std::string
Options::shapeError(int argc, char *const *argv, int first)
{
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (!startsWith(key, "--"))
            return "expected --option, got '" + key + "'";
        if (key.find('=') != std::string::npos)
            continue;
        if (i + 1 >= argc)
            return "option '" + key + "' needs a value";
        ++i;
    }
    return {};
}

bool
Options::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
Options::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

double
Options::getDouble(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parseDouble(it->second, key);
}

std::int64_t
Options::getInt(const std::string &key, std::int64_t fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : parseInt(it->second, key);
}

std::vector<std::string>
Options::keys() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : values_)
        out.push_back(key);
    return out;
}

} // namespace dlw
