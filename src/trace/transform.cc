#include "trace/transform.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace trace
{

MsTrace
merge(const std::vector<MsTrace> &parts)
{
    dlw_assert(!parts.empty(), "merging zero traces");

    Tick start = parts.front().start();
    Tick end = parts.front().end();
    std::size_t total = 0;
    for (const MsTrace &p : parts) {
        start = std::min(start, p.start());
        end = std::max(end, p.end());
        total += p.size();
    }

    MsTrace out(parts.front().driveId() + "+merged", start,
                end - start);
    std::vector<Request> all;
    all.reserve(total);
    for (const MsTrace &p : parts) {
        all.insert(all.end(), p.requests().begin(),
                   p.requests().end());
    }
    std::stable_sort(all.begin(), all.end(), ByArrival{});
    for (const Request &r : all)
        out.append(r);
    return out;
}

} // namespace trace
} // namespace dlw
