#include "serve/client.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/error.h"

namespace save {

namespace {

/** A socket connected to the daemon at `path`; throws
 *  ServeConnectError when nothing listens there. */
int
connectTo(const std::string &path)
{
    struct sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path))
        throw ConfigError("socket path too long: " + path);
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw SimError(std::string("cannot create socket: ") +
                       std::strerror(errno));
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int e = errno;
        ::close(fd);
        std::string hint =
            (e == ECONNREFUSED || e == ENOENT)
                ? " (is save-serve running on this socket?)"
                : "";
        throw ServeConnectError("cannot connect to " + path + ": " +
                                std::strerror(e) + hint);
    }
    return fd;
}

} // namespace

ServeClient::ServeClient(std::string socketPath)
    : path_(std::move(socketPath))
{
    // A daemon that dies mid-reply must surface as EPIPE on our next
    // write, not kill the client process.
    std::signal(SIGPIPE, SIG_IGN);
}

ServeClient::Reply
ServeClient::call(const ServeRequest &req, const AckFn &onAck,
                  int timeout_ms)
{
    const int fd = connectTo(path_);
    Reply reply;
    try {
        if (!frameWriteFd(fd, kServeRequest, kServeVersion,
                          serveEncodeRequest(req)))
            throw SimError(std::string("request write failed: ") +
                           std::strerror(errno));
        for (;;) {
            Frame f;
            FrameRead r = frameReadFd(fd, f, timeout_ms,
                                      serveKnownFourcc,
                                      kServeMaxPayload, "serve");
            if (r == FrameRead::Eof)
                throw SimError(
                    "daemon closed the connection without a reply "
                    "(request " +
                    std::string(serveKindName(req.kind)) + ")");
            if (r == FrameRead::Timeout)
                throw SimError(
                    "no reply from " + path_ + " within " +
                    std::to_string(timeout_ms) + "ms");
            if (f.fourcc == kServeAck) {
                ServePointAck ack = serveDecodePointAck(f.payload);
                if (onAck)
                    onAck(ack);
                continue;
            }
            if (f.fourcc == kServeResult) {
                reply.kind = Reply::Kind::Ok;
                switch (req.kind) {
                case ServeKind::Status:
                    reply.status = serveDecodeStatus(f.payload);
                    break;
                case ServeKind::Gemm:
                    reply.gemm = wireDecodeSliceResult(f.payload);
                    break;
                case ServeKind::Ping:
                case ServeKind::Drain:
                case ServeKind::Sweep:
                    break;
                }
                break;
            }
            if (f.fourcc == kServeError) {
                reply.kind = Reply::Kind::Error;
                reply.error = wireDecodeError(f.payload);
                break;
            }
            if (f.fourcc == kServeBusy) {
                reply.kind = Reply::Kind::Busy;
                reply.busy = serveDecodeBusy(f.payload);
                break;
            }
            throw TraceError("serve: unexpected reply frame " +
                             frameFourccName(f.fourcc));
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return reply;
}

} // namespace save
