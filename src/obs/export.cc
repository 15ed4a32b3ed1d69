#include "obs/export.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace dlw
{
namespace obs
{

std::string
formatNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(12) << (std::isfinite(v) ? v : 0.0);
    return os.str();
}

namespace
{

/** Prometheus metric name: dots to underscores under a dlw_ prefix. */
std::string
promName(const std::string &name)
{
    std::string out = "dlw_";
    for (char c : name)
        out += (c == '.' || c == '-') ? '_' : c;
    return out;
}

void
renderSpanText(std::ostringstream &os, const SpanStats &node,
               std::size_t depth)
{
    if (depth != 0) {
        os << std::string(2 * depth, ' ') << node.name;
        const std::size_t used = 2 * depth + node.name.size();
        os << std::string(used < 32 ? 32 - used : 1, ' ');
        os << node.count << "x  total " << formatNumber(node.total_s)
           << " s  mean "
           << formatNumber(node.count
                      ? node.total_s / static_cast<double>(node.count)
                      : 0.0)
           << " s\n";
    }
    for (const SpanStats &child : node.children)
        renderSpanText(os, child, depth + 1);
}

void
renderSpanJson(std::ostringstream &os, const SpanStats &node)
{
    os << "{\"name\":\"" << jsonEscape(node.name)
       << "\",\"count\":" << node.count << ",\"total_s\":"
       << formatNumber(node.total_s) << ",\"min_s\":" << formatNumber(node.min_s)
       << ",\"max_s\":" << formatNumber(node.max_s) << ",\"children\":[";
    bool first = true;
    for (const SpanStats &child : node.children) {
        if (!first)
            os << ',';
        first = false;
        renderSpanJson(os, child);
    }
    os << "]}";
}

} // anonymous namespace

Snapshot
takeSnapshot()
{
    Snapshot snap;
    snap.metrics = Registry::instance().snapshotMetrics();
    snap.spans = spanSnapshot();
    return snap;
}

StatusOr<ExportFormat>
parseExportFormat(const std::string &name)
{
    if (name == "text")
        return ExportFormat::kText;
    if (name == "json")
        return ExportFormat::kJson;
    if (name == "prom")
        return ExportFormat::kProm;
    return Status::invalidArgument("unknown metrics format '" + name +
                                   "' (text|json|prom)");
}

std::string
renderText(const Snapshot &snap)
{
    std::ostringstream os;
    os << "== metrics ==\n";
    std::size_t width = 0;
    for (const MetricSnapshot &m : snap.metrics)
        width = std::max(width, m.info.name.size());
    for (const MetricSnapshot &m : snap.metrics) {
        os << "  " << m.info.name
           << std::string(width - m.info.name.size() + 2, ' ');
        switch (m.info.type) {
          case MetricType::kCounter:
            os << m.count << ' ' << m.info.unit;
            break;
          case MetricType::kGauge:
            os << m.level << ' ' << m.info.unit;
            break;
          case MetricType::kHistogram:
            os << m.count << " samples";
            if (m.count != 0) {
                os << ", mean " << formatNumber(m.mean) << ' ' << m.info.unit
                   << ", p50 " << formatNumber(m.p50) << ", p95 "
                   << formatNumber(m.p95) << ", p99 " << formatNumber(m.p99) << ", max "
                   << formatNumber(m.max);
            }
            break;
        }
        os << "  [" << m.info.subsystem << "]\n";
    }
    os << "\n== spans ==\n";
    if (snap.spans.children.empty())
        os << "  (none recorded)\n";
    renderSpanText(os, snap.spans, 0);
    return os.str();
}

std::string
renderJson(const Snapshot &snap)
{
    std::ostringstream os;
    os << "{\"metrics\":{";
    bool first = true;
    for (const MetricSnapshot &m : snap.metrics) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(m.info.name) << "\":{\"type\":\""
           << metricTypeName(m.info.type) << "\",\"unit\":\""
           << jsonEscape(m.info.unit) << "\",\"subsystem\":\""
           << jsonEscape(m.info.subsystem) << '"';
        switch (m.info.type) {
          case MetricType::kCounter:
            os << ",\"value\":" << m.count;
            break;
          case MetricType::kGauge:
            os << ",\"value\":" << m.level;
            break;
          case MetricType::kHistogram:
            os << ",\"count\":" << m.count << ",\"sum\":"
               << formatNumber(m.sum) << ",\"mean\":" << formatNumber(m.mean)
               << ",\"min\":" << formatNumber(m.min) << ",\"max\":"
               << formatNumber(m.max) << ",\"p50\":" << formatNumber(m.p50)
               << ",\"p95\":" << formatNumber(m.p95) << ",\"p99\":"
               << formatNumber(m.p99);
            break;
        }
        os << '}';
    }
    os << "},\"spans\":";
    renderSpanJson(os, snap.spans);
    os << '}';
    return os.str();
}

std::string
renderProm(const Snapshot &snap)
{
    std::ostringstream os;
    for (const MetricSnapshot &m : snap.metrics) {
        const std::string name = promName(m.info.name);
        os << "# HELP " << name << ' ' << m.info.help << '\n';
        switch (m.info.type) {
          case MetricType::kCounter:
            os << "# TYPE " << name << " counter\n"
               << name << "_total " << m.count << '\n';
            break;
          case MetricType::kGauge:
            os << "# TYPE " << name << " gauge\n"
               << name << ' ' << m.level << '\n';
            break;
          case MetricType::kHistogram:
            os << "# TYPE " << name << " summary\n";
            // With zero samples the quantiles are undefined, not 0;
            // emit only the explicit empty _sum/_count pair so a
            // scraper never ingests a fabricated "p99 = 0".
            if (m.count != 0) {
                os << name << "{quantile=\"0.5\"} " << formatNumber(m.p50)
                   << '\n';
                os << name << "{quantile=\"0.95\"} " << formatNumber(m.p95)
                   << '\n';
                os << name << "{quantile=\"0.99\"} " << formatNumber(m.p99)
                   << '\n';
            }
            os << name << "_sum " << formatNumber(m.sum) << '\n';
            os << name << "_count " << m.count << '\n';
            break;
        }
    }
    return os.str();
}

std::string
render(const Snapshot &snap, ExportFormat format)
{
    switch (format) {
      case ExportFormat::kText:
        return renderText(snap);
      case ExportFormat::kJson:
        return renderJson(snap);
      case ExportFormat::kProm:
        return renderProm(snap);
    }
    return {};
}

BenchReportGuard::BenchReportGuard(std::string name)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now())
{
    enable();
}

BenchReportGuard::~BenchReportGuard()
{
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start_;
    const Snapshot snap = takeSnapshot();
    disable();

    const char *dir = std::getenv("DLW_BENCH_DIR");
    std::string path = (dir && *dir) ? std::string(dir) + "/" : "";
    path += "BENCH_" + name_ + ".json";

    std::ofstream os(path);
    if (!os) {
        dlw_warn("cannot write bench report '", path, "'");
        return;
    }
    os << "{\"bench\":\"" << jsonEscape(name_)
       << "\",\"wall_seconds\":" << formatNumber(wall.count())
       << ",\"snapshot\":" << renderJson(snap) << "}\n";
}

} // namespace obs
} // namespace dlw
