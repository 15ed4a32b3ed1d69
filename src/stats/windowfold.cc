#include "stats/windowfold.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

namespace
{

/** Windowed chains one walk carries: one bit each in a close mask. */
constexpr std::size_t kGroup = 64;

/** Bins whose close masks are laid out ahead of the walk. */
constexpr std::size_t kTile = 256;

/**
 * Walk v[0, stop) once: fold every bin into *unit (when kUnit), add
 * every bin to each chain's open window, and fold each window into
 * its chain at its last bin, divided by the chain's div, then open
 * the next one.  Chain g's windows are w[g] bins wide and its last
 * whole window ends at bin last[g].
 *
 * Which windows end at which bin is worked out a tile at a time, as
 * one bit mask per bin, so the walk itself branches only to fold.
 * Each fold reads its own chain, so the folds of different chains
 * and the unit chain's divisions overlap.
 */
template <bool kUnit>
void
walk(const double *v, std::size_t stop, MeanM2 *unit, std::size_t count,
     const std::size_t *w, const std::size_t *last, const double *div,
     MeanM2 *m)
{
    // Open-window sums, padded to whole groups of four: the spare
    // ones add along and are never read.
    alignas(32) double acc[kGroup] = {};
    const std::size_t padded = (count + 3) & ~std::size_t{3};
    std::size_t next[kGroup];
    for (std::size_t g = 0; g < count; ++g)
        next[g] = w[g] - 1;
    std::uint64_t closes[kTile];
    MeanM2 u = *unit;

    for (std::size_t t0 = 0; t0 < stop; t0 += kTile) {
        const std::size_t t1 = std::min(stop, t0 + kTile);
        std::fill(closes, closes + (t1 - t0), std::uint64_t{0});
        for (std::size_t g = 0; g < count; ++g) {
            std::size_t c = next[g];
            for (; c < t1 && c <= last[g]; c += w[g])
                closes[c - t0] |= std::uint64_t{1} << g;
            next[g] = c;
        }
        for (std::size_t i = t0; i < t1; ++i) {
            const double x = v[i];
            if (kUnit)
                u.add(x);
            for (std::size_t g = 0; g < padded; g += 4) {
                acc[g] += x;
                acc[g + 1] += x;
                acc[g + 2] += x;
                acc[g + 3] += x;
            }
            for (std::uint64_t bits = closes[i - t0]; bits != 0;
                 bits &= bits - 1) {
                const auto g =
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                m[g].add(acc[g] / div[g]);
                acc[g] = 0.0;
            }
        }
    }
    *unit = u;
}

} // anonymous namespace

std::size_t
WindowFold::chain(std::size_t w, double div)
{
    dlw_assert(w >= 1, "window width must be >= 1");
    // Width 1 folds each bin as it is, whether asked as a sum or a
    // mean: one chain.
    if (w == 1)
        div = 1.0;
    for (std::size_t i = 0; i < chains_.size(); ++i) {
        if (chains_[i].w == w && chains_[i].div == div)
            return i;
    }
    chains_.push_back({w, div, MeanM2{}});
    return chains_.size() - 1;
}

std::size_t
WindowFold::sums(std::size_t w)
{
    return chain(w, 1.0);
}

std::size_t
WindowFold::means(std::size_t w)
{
    return chain(w, static_cast<double>(w));
}

void
WindowFold::run(const std::vector<double> &v)
{
    const std::size_t n = v.size();
    MeanM2 unit;
    MeanM2 *unit_out = nullptr;
    // Windowed chains with a whole window in v.
    std::vector<std::size_t> ids, w, last;
    std::vector<double> div;
    for (std::size_t i = 0; i < chains_.size(); ++i) {
        Chain &c = chains_[i];
        if (c.w == 1) {
            unit_out = &c.m;
            continue;
        }
        if (n / c.w == 0)
            continue;
        ids.push_back(i);
        w.push_back(c.w);
        last.push_back(n / c.w * c.w - 1);
        div.push_back(c.div);
    }

    // Up to kGroup windowed chains per walk; the first walk also
    // carries the width-1 chain, through the last bin.
    std::vector<MeanM2> m(ids.size());
    std::size_t first = 0;
    do {
        const std::size_t count = std::min(kGroup, ids.size() - first);
        std::size_t stop = 0;
        for (std::size_t g = first; g < first + count; ++g)
            stop = std::max(stop, last[g] + 1);
        if (first == 0 && unit_out != nullptr)
            walk<true>(v.data(), n, &unit, count, w.data() + first,
                       last.data() + first, div.data() + first,
                       m.data() + first);
        else
            walk<false>(v.data(), stop, &unit, count, w.data() + first,
                        last.data() + first, div.data() + first,
                        m.data() + first);
        first += count;
    } while (first < ids.size());

    for (std::size_t g = 0; g < ids.size(); ++g)
        chains_[ids[g]].m = m[g];
    if (unit_out != nullptr)
        *unit_out = unit;
}

} // namespace stats
} // namespace dlw
