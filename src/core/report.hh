/**
 * @file
 * Aligned text tables and CSV series output.
 *
 * Every bench binary prints its table/figure through these helpers
 * so the harness output looks like the rows the paper reports:
 * a titled, aligned table for tables and a name,x,y CSV block for
 * figure series.
 */

#ifndef DLW_CORE_REPORT_HH
#define DLW_CORE_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace dlw
{
namespace core
{

/**
 * Column-aligned text table builder.
 */
class Table
{
  public:
    /**
     * @param title   Table caption.
     * @param headers Column names.
     */
    Table(std::string title, std::vector<std::string> headers);

    /** Append one row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

    /** Render with column alignment to a stream. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Print a figure series as CSV rows `series,x,y` preceded by a
 * `## figure: <name>` marker, so bench output is both readable and
 * machine-pluckable.
 *
 * @param os     Output stream.
 * @param figure Figure identifier (e.g. "E4-idle-cdf").
 * @param series Series label within the figure.
 * @param points (x, y) pairs.
 */
void printSeries(std::ostream &os, const std::string &figure,
                 const std::string &series,
                 const std::vector<std::pair<double, double>> &points);

/** Shorthand: format a double with 4 significant-ish digits. */
std::string cell(double v);

/** Shorthand: format an integer cell. */
std::string cell(std::uint64_t v);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_REPORT_HH
