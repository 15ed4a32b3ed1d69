#include "trace/batch.hh"

#include <utility>

#include "common/logging.hh"

namespace dlw
{
namespace trace
{

RequestBatch::RequestBatch(std::size_t capacity)
    : capacity_(capacity)
{
    dlw_assert(capacity > 0, "batch capacity must be positive");
    arrivals_.reserve(capacity);
    lbas_.reserve(capacity);
    blocks_.reserve(capacity);
    ops_.reserve(capacity);
}

void
RequestBatch::clear()
{
    arrivals_.clear();
    lbas_.clear();
    blocks_.clear();
    ops_.clear();
}

void
RequestBatch::append(const RequestBatch &other)
{
    dlw_assert(size() + other.size() <= capacity_,
               "append past the batch capacity");
    arrivals_.insert(arrivals_.end(), other.arrivals_.begin(),
                     other.arrivals_.end());
    lbas_.insert(lbas_.end(), other.lbas_.begin(), other.lbas_.end());
    blocks_.insert(blocks_.end(), other.blocks_.begin(),
                   other.blocks_.end());
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

void
RequestBatch::swap(RequestBatch &other) noexcept
{
    std::swap(capacity_, other.capacity_);
    arrivals_.swap(other.arrivals_);
    lbas_.swap(other.lbas_);
    blocks_.swap(other.blocks_);
    ops_.swap(other.ops_);
}

std::size_t
RequestBatch::byteSize() const
{
    return size() * (sizeof(Tick) + sizeof(Lba) + sizeof(BlockCount) +
                     sizeof(Op));
}

} // namespace trace
} // namespace dlw
