#include "daemon/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/binenc.hh"
#include "common/strutil.hh"

namespace dlw
{
namespace daemon
{

std::string
checkpointPath(const std::string &dir, const std::string &id)
{
    return dir + "/" + id + ".ckpt";
}

Status
saveSessionCheckpoint(const std::string &dir, const Session &s)
{
    std::string blob;
    blob.append(kCheckpointMagic);
    BinEnc enc(blob);
    enc.u32(kCheckpointVersion);
    s.saveState(enc);

    const std::string path = checkpointPath(dir, s.id());
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC |
                          O_CLOEXEC, 0644);
    if (fd < 0) {
        return Status::ioError("checkpoint open " + tmp + ": " +
                               std::strerror(errno));
    }
    std::size_t off = 0;
    while (off < blob.size()) {
        const ssize_t n =
            ::write(fd, blob.data() + off, blob.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            return Status::ioError("checkpoint write " + tmp + ": " +
                                   std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) < 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        return Status::ioError("checkpoint rename " + path + ": " +
                               std::strerror(err));
    }
    return Status();
}

StatusOr<std::shared_ptr<Session>>
loadSessionCheckpoint(const std::string &path)
{
    std::string bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (f == nullptr) {
            return Status::ioError(
                "open: " + std::string(std::strerror(errno)));
        }
        char buf[64 * 1024];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.append(buf, n);
        std::fclose(f);
    }
    const std::size_t magic_len = std::strlen(kCheckpointMagic);
    if (bytes.size() < magic_len ||
        std::memcmp(bytes.data(), kCheckpointMagic, magic_len) != 0)
        return Status::corruptData("bad magic");
    BinDec dec(bytes.data() + magic_len, bytes.size() - magic_len);
    const std::uint32_t version = dec.u32();
    if (!dec.ok())
        return Status::truncated("truncated checkpoint header");
    if (version < kCheckpointVersion) {
        // A silent default here would resurrect the session in the
        // wrong QoS lane (pre-v3), strip its trace identity and
        // latency account (pre-v4), misread its gap lanes and write
        // runs (pre-v5) or its trace totals (pre-v6); the operator
        // must re-stream.
        return Status::failedPrecondition(
            "checkpoint version " + std::to_string(version) +
            " predates this daemon's session layout (want " +
            std::to_string(kCheckpointVersion) +
            "); refusing to restore a degraded session");
    }
    if (version > kCheckpointVersion) {
        return Status::failedPrecondition(
            "checkpoint version " + std::to_string(version) +
            " is newer than this daemon supports (" +
            std::to_string(kCheckpointVersion) + ")");
    }
    std::shared_ptr<Session> s = Session::restore(dec);
    if (s == nullptr)
        return Status::corruptData("truncated or garbled checkpoint");
    return s;
}

std::vector<std::string>
listCheckpointFiles(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out;
    while (dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (endsWith(name, ".ckpt"))
            out.push_back(dir + "/" + name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

void
removeSessionCheckpoint(const std::string &dir, const std::string &id)
{
    ::unlink(checkpointPath(dir, id).c_str());
}

} // namespace daemon
} // namespace dlw
