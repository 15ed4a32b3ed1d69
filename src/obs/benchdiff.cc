#include "obs/benchdiff.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

namespace dlw
{
namespace obs
{

namespace
{

/**
 * Recursive-descent parser over the JSON subset our exporters emit.
 * Depth-limited so corrupt input cannot blow the stack.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    StatusOr<JsonValue>
    parse()
    {
        JsonValue v;
        Status s = parseValue(v, 0);
        if (!s.ok())
            return s;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    static constexpr std::size_t kMaxDepth = 64;

    Status
    fail(const std::string &what) const
    {
        return Status::invalidArgument(
            "json: " + what + " at offset " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Status
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return Status();
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char e = text_[pos_++];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    // Our exporters only escape control bytes; fold
                    // anything else to '?' rather than decode UTF-16.
                    const unsigned long cp = std::strtoul(
                        text_.substr(pos_, 4).c_str(), nullptr, 16);
                    out += cp < 0x80 ? static_cast<char>(cp) : '?';
                    pos_ += 4;
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    Status
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"') {
            out.type = JsonValue::Type::kString;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    Status
    parseKeyword(JsonValue &out)
    {
        static const struct
        {
            const char *word;
            JsonValue::Type type;
            bool value;
        } kWords[] = {
            {"true", JsonValue::Type::kBool, true},
            {"false", JsonValue::Type::kBool, false},
            {"null", JsonValue::Type::kNull, false},
        };
        for (const auto &w : kWords) {
            const std::size_t n = std::strlen(w.word);
            if (text_.compare(pos_, n, w.word) == 0) {
                out.type = w.type;
                out.boolean = w.value;
                pos_ += n;
                return Status();
            }
        }
        return fail("unknown keyword");
    }

    Status
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        if (!std::isfinite(v))
            return fail("non-finite number");
        out.type = JsonValue::Type::kNumber;
        out.number = v;
        pos_ += static_cast<std::size_t>(end - start);
        return Status();
    }

    Status
    parseObject(JsonValue &out, std::size_t depth)
    {
        consume('{');
        out.type = JsonValue::Type::kObject;
        skipWs();
        if (consume('}'))
            return Status();
        for (;;) {
            skipWs();
            std::string key;
            Status s = parseString(key);
            if (!s.ok())
                return s;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue child;
            s = parseValue(child, depth + 1);
            if (!s.ok())
                return s;
            out.members.emplace_back(std::move(key),
                                     std::move(child));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status();
            return fail("expected ',' or '}'");
        }
    }

    Status
    parseArray(JsonValue &out, std::size_t depth)
    {
        consume('[');
        out.type = JsonValue::Type::kArray;
        skipWs();
        if (consume(']'))
            return Status();
        for (;;) {
            JsonValue child;
            Status s = parseValue(child, depth + 1);
            if (!s.ok())
                return s;
            out.items.push_back(std::move(child));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status();
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

double
numberOr(const JsonValue *v, double fallback)
{
    return (v != nullptr && v->type == JsonValue::Type::kNumber)
        ? v->number
        : fallback;
}

/**
 * Metrics whose values legitimately vary from run to run of the same
 * bench, so no drift in them means the workload changed.  Work
 * stealing is scheduling-dependent by design (fleet/pool.hh): the
 * steal count moves with thread timing and core count.
 */
constexpr std::string_view kUngatedMetrics[] = {
    "fleet.pool.steals",
};

bool
isUngated(const std::string &metric)
{
    for (std::string_view name : kUngatedMetrics) {
        if (metric == name)
            return true;
    }
    return false;
}

/** Percent change of b relative to a (100 when a==0 and b!=0). */
double
pctChange(double a, double b)
{
    if (a == b)
        return 0.0;
    if (a == 0.0)
        return 100.0;
    return 100.0 * (b - a) / std::abs(a);
}

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

StatusOr<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

StatusOr<BenchReport>
parseBenchReport(const std::string &json_text)
{
    StatusOr<JsonValue> parsed = parseJson(json_text);
    if (!parsed.ok())
        return parsed.status();
    const JsonValue &root = parsed.value();
    if (root.type != JsonValue::Type::kObject)
        return Status::invalidArgument(
            "bench report: document is not an object");

    BenchReport report;
    const JsonValue *bench = root.find("bench");
    if (bench == nullptr || bench->type != JsonValue::Type::kString)
        return Status::invalidArgument(
            "bench report: missing \"bench\" name");
    report.bench = bench->str;
    report.wall_seconds = numberOr(root.find("wall_seconds"), 0.0);

    const JsonValue *snapshot = root.find("snapshot");
    const JsonValue *metrics =
        snapshot != nullptr ? snapshot->find("metrics") : nullptr;
    if (metrics == nullptr ||
        metrics->type != JsonValue::Type::kObject)
        return Status::invalidArgument(
            "bench report: missing snapshot.metrics object");

    for (const auto &[name, m] : metrics->members) {
        if (m.type != JsonValue::Type::kObject)
            continue;
        BenchSample sample;
        const JsonValue *type = m.find("type");
        const std::string type_name =
            type != nullptr ? type->str : "counter";
        if (type_name == "histogram") {
            sample.type = MetricType::kHistogram;
            sample.count = static_cast<std::uint64_t>(
                numberOr(m.find("count"), 0.0));
            sample.p95 = numberOr(m.find("p95"), 0.0);
        } else {
            sample.type = type_name == "gauge" ? MetricType::kGauge
                                               : MetricType::kCounter;
            sample.value = numberOr(m.find("value"), 0.0);
        }
        report.metrics.emplace(name, sample);
    }
    return report;
}

StatusOr<BenchReport>
readBenchReport(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return Status::ioError("cannot open bench report '" + path +
                               "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    StatusOr<BenchReport> report = parseBenchReport(buf.str());
    if (!report.ok()) {
        return Status(report.status().code(),
                      path + ": " + report.status().message());
    }
    return report;
}

BenchDiffResult
diffBenchReports(const BenchReport &older, const BenchReport &newer,
                 const BenchDiffThresholds &thresholds)
{
    BenchDiffResult result;

    BenchDiffEntry wall;
    wall.key = "wall_seconds";
    wall.old_value = older.wall_seconds;
    wall.new_value = newer.wall_seconds;
    wall.delta_pct = pctChange(older.wall_seconds,
                               newer.wall_seconds);
    wall.regressed = wall.delta_pct > thresholds.wall_pct;
    result.entries.push_back(wall);

    for (const auto &[name, old_sample] : older.metrics) {
        const auto it = newer.metrics.find(name);
        if (it == newer.metrics.end()) {
            result.only_old.push_back(name);
            continue;
        }
        const BenchSample &new_sample = it->second;
        const std::size_t first = result.entries.size();
        if (old_sample.type == MetricType::kHistogram) {
            BenchDiffEntry count;
            count.key = name + ".count";
            count.old_value =
                static_cast<double>(old_sample.count);
            count.new_value =
                static_cast<double>(new_sample.count);
            count.delta_pct =
                pctChange(count.old_value, count.new_value);
            count.regressed = std::abs(count.delta_pct) >
                              thresholds.counter_pct;
            result.entries.push_back(count);

            // A p95 over zero observations is meaningless; only
            // compare latency when both runs actually recorded.
            if (old_sample.count != 0 && new_sample.count != 0) {
                BenchDiffEntry p95;
                p95.key = name + ".p95";
                p95.old_value = old_sample.p95;
                p95.new_value = new_sample.p95;
                p95.delta_pct =
                    pctChange(old_sample.p95, new_sample.p95);
                p95.regressed = p95.delta_pct > thresholds.p95_pct;
                result.entries.push_back(p95);
            }
        } else {
            BenchDiffEntry e;
            e.key = name;
            e.old_value = old_sample.value;
            e.new_value = new_sample.value;
            e.delta_pct = pctChange(e.old_value, e.new_value);
            e.regressed =
                std::abs(e.delta_pct) > thresholds.counter_pct;
            result.entries.push_back(e);
        }
        if (isUngated(name)) {
            for (std::size_t i = first; i < result.entries.size(); ++i) {
                result.entries[i].ungated = true;
                result.entries[i].regressed = false;
            }
        }
    }
    for (const auto &[name, sample] : newer.metrics) {
        (void)sample;
        if (older.metrics.find(name) == older.metrics.end())
            result.only_new.push_back(name);
    }

    for (const BenchDiffEntry &e : result.entries)
        result.regressed = result.regressed || e.regressed;
    return result;
}

std::string
renderBenchDiff(const BenchReport &older, const BenchReport &newer,
                const BenchDiffResult &diff)
{
    std::ostringstream os;
    os << "bench-diff: " << older.bench;
    if (newer.bench != older.bench)
        os << " -> " << newer.bench;
    os << '\n';

    std::size_t width = std::strlen("quantity");
    for (const BenchDiffEntry &e : diff.entries) {
        if (e.delta_pct != 0.0 || e.key == "wall_seconds")
            width = std::max(width, e.key.size());
    }
    os << "  " << std::left << std::setw(static_cast<int>(width))
       << "quantity" << "  " << std::right << std::setw(14) << "old"
       << std::setw(14) << "new" << std::setw(10) << "delta%"
       << "  verdict\n";
    for (const BenchDiffEntry &e : diff.entries) {
        if (e.delta_pct == 0.0 && e.key != "wall_seconds")
            continue;
        os << "  " << std::left << std::setw(static_cast<int>(width))
           << e.key << "  " << std::right << std::setprecision(6)
           << std::setw(14) << e.old_value << std::setw(14)
           << e.new_value << std::setw(9) << std::showpos
           << std::setprecision(2) << std::fixed << e.delta_pct
           << std::noshowpos << std::defaultfloat << "%  "
           << (e.ungated     ? "ungated"
               : e.regressed ? "REGRESSED"
                             : "ok")
           << '\n';
    }
    for (const std::string &name : diff.only_old)
        os << "  only in old: " << name << '\n';
    for (const std::string &name : diff.only_new)
        os << "  only in new: " << name << '\n';
    os << (diff.regressed ? "bench-diff: REGRESSION detected\n"
                          : "bench-diff: no regression\n");
    return os.str();
}

} // namespace obs
} // namespace dlw
