/**
 * @file
 * Fixed-capacity request batch: the unit of the streaming pipeline.
 *
 * The streaming data path decodes a trace chunk-by-chunk instead of
 * materializing one std::vector<Request> per drive; a RequestBatch is
 * one such chunk.  Storage is struct-of-arrays so a kernel that only
 * needs arrivals (binned counts, interarrival gaps) walks a dense
 * Tick array instead of striding over 32-byte records, and so the
 * batch's memory footprint is exactly capacity * 21 bytes regardless
 * of how the fields pad inside Request.
 *
 * A batch is reused across the whole stream: the source clears and
 * refills it, so steady-state decoding allocates nothing.
 */

#ifndef DLW_TRACE_BATCH_HH
#define DLW_TRACE_BATCH_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "trace/record.hh"

namespace dlw
{
namespace trace
{

/** Default batch capacity: 4096 requests ~= 84 KiB of payload. */
constexpr std::size_t kDefaultBatchRequests = 4096;

/**
 * Largest batch capacity a caller may ask for: 2^20 requests ~=
 * 21 MiB of payload.  A batch reserves its whole capacity up front,
 * so a larger request would only turn into a failed allocation.
 */
constexpr std::size_t kMaxBatchRequests = std::size_t{1} << 20;

/**
 * A bounded chunk of a request stream, in arrival order.
 */
class RequestBatch
{
  public:
    /** @param capacity Fixed capacity in requests (> 0). */
    explicit RequestBatch(std::size_t capacity = kDefaultBatchRequests);

    /** Fixed capacity in requests. */
    std::size_t capacity() const { return capacity_; }

    /** Requests currently held. */
    std::size_t size() const { return arrivals_.size(); }

    /** True when the batch holds no requests. */
    bool empty() const { return arrivals_.empty(); }

    /** True when the batch is at capacity. */
    bool full() const { return arrivals_.size() == capacity_; }

    /** Drop all requests (capacity and storage are kept). */
    void clear();

    /** Append a request (asserts the batch is not full). */
    void
    append(const Request &req)
    {
        dlw_assert(!full(), "append to a full batch");
        arrivals_.push_back(req.arrival);
        lbas_.push_back(req.lba);
        blocks_.push_back(req.blocks);
        ops_.push_back(req.op);
    }

    /**
     * Append every request of `other` (asserts they fit).  The tag
     * is left as it is.
     */
    void append(const RequestBatch &other);

    /** Exchange contents, capacity and tag with `other`. */
    void swap(RequestBatch &other) noexcept;

    /** Arrival tick of request i. */
    Tick arrival(std::size_t i) const { return arrivals_[i]; }

    /** Starting LBA of request i. */
    Lba lba(std::size_t i) const { return lbas_[i]; }

    /** Length of request i in blocks. */
    BlockCount blocks(std::size_t i) const { return blocks_[i]; }

    /** Direction of request i. */
    Op op(std::size_t i) const { return ops_[i]; }

    /** True when request i is a read. */
    bool isRead(std::size_t i) const { return ops_[i] == Op::Read; }

    /** One past the last block request i touches. */
    Lba lbaEnd(std::size_t i) const { return lbas_[i] + blocks_[i]; }

    /** Payload bytes of request i. */
    std::uint64_t
    bytes(std::size_t i) const
    {
        return static_cast<std::uint64_t>(blocks_[i]) * kBlockBytes;
    }

    /** Reassembled request i (for AoS consumers). */
    Request
    get(std::size_t i) const
    {
        dlw_assert(i < size(), "batch index out of range");
        Request r;
        r.arrival = arrivals_[i];
        r.lba = lbas_[i];
        r.blocks = blocks_[i];
        r.op = ops_[i];
        return r;
    }

    /** Dense arrival-tick array (size() entries). */
    const std::vector<Tick> &arrivals() const { return arrivals_; }

    // Raw column pointers (size() entries each).  Valid until the
    // next append()/clear().
    /** Arrival ticks. */
    const Tick *arrivalsData() const { return arrivals_.data(); }
    /** Starting LBAs. */
    const Lba *lbasData() const { return lbas_.data(); }
    /** Request lengths in blocks. */
    const BlockCount *blocksData() const { return blocks_.data(); }

    /** Payload bytes currently held across all columns. */
    std::size_t byteSize() const;

  private:
    std::size_t capacity_;
    std::vector<Tick> arrivals_;
    std::vector<Lba> lbas_;
    std::vector<BlockCount> blocks_;
    std::vector<Op> ops_;
};

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_BATCH_HH
