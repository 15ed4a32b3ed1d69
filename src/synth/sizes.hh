/**
 * @file
 * Request-size models.
 *
 * Enterprise disk traffic mixes small random accesses (database
 * pages, metadata) with large sequential transfers (backup, scans),
 * so beyond a fixed size the generator offers a lognormal body.
 */

#ifndef DLW_SYNTH_SIZES_HH
#define DLW_SYNTH_SIZES_HH

#include <memory>

#include "common/rng.hh"
#include "common/types.hh"

namespace dlw
{
namespace synth
{

/**
 * Abstract source of request sizes (in blocks).
 */
class SizeModel
{
  public:
    virtual ~SizeModel() = default;

    /** Draw one request size in blocks (>= 1). */
    virtual BlockCount nextBlocks(Rng &rng) = 0;

    /** Long-run mean size in blocks. */
    virtual double meanBlocks() const = 0;
};

/**
 * Every request the same size.
 */
class FixedSize : public SizeModel
{
  public:
    /** @param blocks Size of every request (>= 1). */
    explicit FixedSize(BlockCount blocks);

    BlockCount nextBlocks(Rng &rng) override;
    double meanBlocks() const override;

  private:
    BlockCount blocks_;
};

/**
 * Lognormal body clipped to [1, max_blocks].
 */
class LognormalSize : public SizeModel
{
  public:
    /**
     * @param median_blocks Median size in blocks (>= 1).
     * @param sigma         Log-space spread (> 0).
     * @param max_blocks    Hard cap (>= median).
     */
    LognormalSize(BlockCount median_blocks, double sigma,
                  BlockCount max_blocks);

    BlockCount nextBlocks(Rng &rng) override;
    double meanBlocks() const override;

  private:
    double mu_;
    double sigma_;
    BlockCount max_blocks_;
};

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_SIZES_HH
