#include "trace/lifetime.hh"

namespace dlw
{
namespace trace
{

LifetimeTrace::LifetimeTrace(std::string family)
    : family_(std::move(family))
{
}

void
LifetimeTrace::append(LifetimeRecord rec)
{
    records_.push_back(std::move(rec));
}

Status
LifetimeTrace::checkValid() const
{
    auto complain = [&](const std::string &id, const std::string &msg) {
        return Status::corruptData("lifetime record '" + id + "': " +
                                   msg);
    };

    for (const LifetimeRecord &r : records_) {
        if (r.power_on < 0)
            return complain(r.drive_id, "negative power-on time");
        if (r.busy < 0 || r.busy > r.power_on)
            return complain(r.drive_id, "busy time exceeds power-on");
        if (r.reads == 0 && r.read_blocks != 0)
            return complain(r.drive_id, "read blocks without reads");
        if (r.writes == 0 && r.write_blocks != 0)
            return complain(r.drive_id, "write blocks without writes");
        if (r.longest_saturated_run > r.saturated_hours)
            return complain(r.drive_id,
                            "saturated run exceeds saturated hours");
    }
    return Status();
}

bool
LifetimeTrace::validate(bool fail_hard) const
{
    Status s = checkValid();
    if (s.ok())
        return true;
    if (fail_hard)
        throw StatusError(s);
    return false;
}

std::vector<double>
LifetimeTrace::utilizations() const
{
    std::vector<double> out;
    out.reserve(records_.size());
    for (const LifetimeRecord &r : records_)
        out.push_back(r.utilization());
    return out;
}

} // namespace trace
} // namespace dlw
