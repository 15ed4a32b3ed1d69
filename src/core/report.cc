#include "core/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace dlw
{
namespace core
{

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers))
{
    dlw_assert(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    dlw_assert(cells.size() == headers_.size(),
               "row width does not match header");
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    os << "== " << title_ << " ==\n";
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ") << padRight(row[c], widths[c]);
        }
        os << '\n';
    };
    print_row(headers_);

    std::size_t total = headers_.size() > 0
        ? 2 * (headers_.size() - 1)
        : 0;
    for (std::size_t w : widths)
        total += w;
    os << std::string(total, '-') << '\n';

    for (const auto &row : rows_)
        print_row(row);
}

void
printSeries(std::ostream &os, const std::string &figure,
            const std::string &series,
            const std::vector<std::pair<double, double>> &points)
{
    os << "## figure: " << figure << " / " << series << '\n';
    for (const auto &[x, y] : points)
        os << series << ',' << formatDouble(x, 6) << ','
           << formatDouble(y, 6) << '\n';
}

std::string
cell(double v)
{
    char buf[64];
    const double a = v < 0 ? -v : v;
    if (a != 0.0 && (a < 0.001 || a >= 1e7))
        std::snprintf(buf, sizeof(buf), "%.3e", v);
    else if (a >= 100.0)
        std::snprintf(buf, sizeof(buf), "%.1f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

std::string
cell(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace core
} // namespace dlw
