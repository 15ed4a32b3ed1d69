#include "core/prefetch.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/span.hh"

namespace dlw
{
namespace core
{

std::size_t
PrefetchSource::slotCapacity(std::size_t batch_requests)
{
    dlw_assert(batch_requests > 0, "batch capacity must be positive");
    return batch_requests *
           std::max<std::size_t>(
               1, trace::kDefaultBatchRequests / batch_requests);
}

PrefetchSource::PrefetchSource(trace::RequestSource &upstream,
                               std::size_t batch_requests,
                               std::function<void()> on_end)
    : upstream_(upstream), slot_capacity_(slotCapacity(batch_requests)),
      on_end_(std::move(on_end))
{
    if (slot_capacity_ != batch_requests)
        stage_.emplace(batch_requests);
    slots_.reserve(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i)
        slots_.emplace_back(slot_capacity_);
    producer_ = std::thread(&PrefetchSource::produce, this);
}

PrefetchSource::~PrefetchSource()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        cancel_ = true;
    }
    space_.notify_one();
    if (producer_.joinable())
        producer_.join();
}

bool
PrefetchSource::next(trace::RequestBatch &batch)
{
    dlw_assert(batch.capacity() == slot_capacity_,
               "prefetch consumer batch must have the slot capacity");
    std::unique_lock<std::mutex> lk(mu_);
    ready_.wait(lk, [this] { return head_ != tail_ || ended_; });
    if (head_ == tail_) {
        if (error_)
            std::rethrow_exception(error_);
        batch.clear();
        return false;
    }
    batch.swap(slots_[tail_ % kSlots]);
    ++tail_;
    // A producer parked on the full ring waits for kResumeAt.
    const bool resume = head_ - tail_ <= kResumeAt;
    lk.unlock();
    if (resume)
        space_.notify_one();
    return true;
}

void
PrefetchSource::join()
{
    if (producer_.joinable())
        producer_.join();
    if (error_)
        std::rethrow_exception(error_);
}

/**
 * Refill `slot` from upstream: one batch straight into it, or
 * consecutive staged batches while another one fits.
 *
 * @return False once upstream has ended; `slot` then holds only the
 *         batches it delivered before that.
 */
bool
PrefetchSource::fill(trace::RequestBatch &slot)
{
    if (!stage_) {
        if (upstream_.next(slot))
            return true;
        // A rejected batch never reaches the consumer.
        slot.clear();
        return false;
    }
    slot.clear();
    while (slot.size() + stage_->capacity() <= slot.capacity()) {
        if (!upstream_.next(*stage_))
            return false;
        slot.append(*stage_);
    }
    return true;
}

void
PrefetchSource::produce()
{
    obs::ScopedSpan span("prefetch");
    std::exception_ptr error;
    bool cancelled;
    try {
        for (bool live = true; live;) {
            std::size_t at = 0;
            {
                std::unique_lock<std::mutex> lk(mu_);
                if (head_ - tail_ == kSlots) {
                    space_.wait(lk, [this] {
                        return cancel_ || head_ - tail_ <= kResumeAt;
                    });
                }
                if (cancel_)
                    break;
                at = head_ % kSlots;
            }
            // Slot `at` is outside [tail_, head_), so the consumer
            // does not touch it until head_ moves past it.
            live = fill(slots_[at]);
            if (slots_[at].empty())
                continue;
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++head_;
            }
            ready_.notify_one();
        }
    } catch (...) {
        error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = error;
        ended_ = true;
        cancelled = cancel_;
    }
    ready_.notify_one();
    if (error || cancelled || !on_end_ || !upstream_.status().ok())
        return;
    try {
        on_end_();
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = std::current_exception();
    }
}

} // namespace core
} // namespace dlw
