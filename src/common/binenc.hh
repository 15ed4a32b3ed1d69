/**
 * @file
 * Minimal binary encode/decode helpers for versioned state blobs.
 *
 * The daemon's crash-safe checkpoints serialize live accumulator
 * state (stats summaries, binned series, decoder progress) into a
 * flat byte string and read it back bit-exactly — a restored session
 * must continue producing reports byte-identical to an uninterrupted
 * run, so doubles round-trip through their raw IEEE-754 bits, never
 * through text.
 *
 * The encoder appends little-endian fixed-width fields to a string.
 * The decoder is failure-latching: any short read or implausible
 * length flips a sticky error flag, every subsequent read returns a
 * zero value, and the caller checks `ok()` once at the end — the
 * same shape as the corrupt-trace parsers, so a truncated or garbled
 * checkpoint is rejected with a Status rather than UB.  Length
 * fields are validated against the bytes actually remaining before
 * any allocation, so a corrupt length cannot balloon memory.
 */

#ifndef DLW_COMMON_BINENC_HH
#define DLW_COMMON_BINENC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dlw
{

/** Append-only little-endian encoder over a caller-owned string. */
class BinEnc
{
  public:
    explicit BinEnc(std::string &out) : out_(out) {}

    BinEnc(const BinEnc &) = delete;
    BinEnc &operator=(const BinEnc &) = delete;

    void
    u8(std::uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        char b[4];
        std::memcpy(b, &v, 4);
        out_.append(b, 4);
    }

    void
    u64(std::uint64_t v)
    {
        char b[8];
        std::memcpy(b, &v, 8);
        out_.append(b, 8);
    }

    void
    i64(std::int64_t v)
    {
        std::uint64_t u;
        std::memcpy(&u, &v, 8);
        u64(u);
    }

    /** Raw IEEE-754 bits: the bit-exact round trip checkpoints need. */
    void
    f64(double v)
    {
        std::uint64_t u;
        std::memcpy(&u, &v, 8);
        u64(u);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    /** Length-prefixed raw bytes. */
    void
    bytes(const char *data, std::size_t n)
    {
        u64(n);
        out_.append(data, n);
    }

    /** Length-prefixed vector of raw doubles. */
    void
    f64vec(const std::vector<double> &v)
    {
        u64(v.size());
        for (double x : v)
            f64(x);
    }

  private:
    std::string &out_;
};

/** Failure-latching little-endian decoder over a byte range. */
class BinDec
{
  public:
    BinDec(const char *data, std::size_t n)
        : p_(data), end_(data + n)
    {
    }

    explicit BinDec(const std::string &s) : BinDec(s.data(), s.size())
    {
    }

    /** True while every read so far was in bounds. */
    bool ok() const { return !failed_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    /** Mark the blob bad from the caller's side (bad magic, ...). */
    void fail() { failed_ = true; }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(p_[-1]);
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v;
        std::memcpy(&v, p_ - 4, 4);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v;
        std::memcpy(&v, p_ - 8, 8);
        return v;
    }

    std::int64_t
    i64()
    {
        const std::uint64_t u = u64();
        std::int64_t v;
        std::memcpy(&v, &u, 8);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t u = u64();
        double v;
        std::memcpy(&v, &u, 8);
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (failed_ || n > remaining()) {
            failed_ = true;
            return {};
        }
        std::string s(p_, static_cast<std::size_t>(n));
        p_ += n;
        return s;
    }

    std::vector<double>
    f64vec()
    {
        const std::uint64_t n = u64();
        if (failed_ || n > remaining() / 8) {
            failed_ = true;
            return {};
        }
        std::vector<double> v(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = f64();
        return v;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (failed_ || remaining() < n) {
            failed_ = true;
            return false;
        }
        p_ += n;
        return true;
    }

    const char *p_;
    const char *end_;
    bool failed_ = false;
};

} // namespace dlw

#endif // DLW_COMMON_BINENC_HH
