/**
 * @file
 * ServeClient: the client side of the save-serve protocol. One
 * request per connection: connect, send SREQ, pass each streamed
 * SPRG point ack to the caller, and return the terminal
 * SRES/SERR/SBSY as a typed Reply. `save-ctl`, the shard coordinator
 * and the serve tests are its users.
 *
 * Failure policy mirrors the rest of the harness: a failed connect
 * throws ServeConnectError (nothing reached the daemon); timeouts and
 * protocol corruption throw SimError/TraceError with actionable
 * messages (never a hang — every read is deadline-bounded); an
 * overloaded daemon is NOT an exception but a Reply::Kind::Busy,
 * because load-shedding is an expected answer.
 */

#ifndef SAVE_SERVE_CLIENT_H
#define SAVE_SERVE_CLIENT_H

#include <functional>
#include <string>

#include "serve/protocol.h"
#include "util/error.h"

namespace save {

/** connect(2) to the daemon's socket failed: no request was sent, so
 *  the daemon cannot have worked on it. */
class ServeConnectError : public SimError
{
  public:
    using SimError::SimError;
};

class ServeClient
{
  public:
    /** Per-point ack callback for Sweep requests. */
    using AckFn = std::function<void(const ServePointAck &)>;

    struct Reply
    {
        enum class Kind
        {
            Ok,
            Busy,
            Error,
        };
        Kind kind = Kind::Ok;
        /** Kind::Error: the daemon-side failure, taxonomy-mapped. */
        WireErrorInfo error;
        /** Kind::Busy: why admission shed the request. */
        ServeBusyInfo busy;
        /** Ok replies, by request kind. */
        ServeStatus status;         ///< Status
        WireSliceResult gemm;       ///< Gemm
    };

    /** Does not connect; every call() opens its own connection. */
    explicit ServeClient(std::string socketPath);

    /**
     * Send one request and wait for the terminal reply, passing each
     * point ack of a Sweep request to `onAck` as it arrives.
     * `timeout_ms` bounds every frame read (< 0 waits forever), so a
     * sweep that streams acks resets the clock at each frame. Throws
     * ServeConnectError when the daemon is unreachable, SimError when
     * it times out, TraceError on protocol corruption.
     */
    Reply call(const ServeRequest &req, const AckFn &onAck = nullptr,
               int timeout_ms = -1);

    const std::string &socketPath() const { return path_; }

  private:
    std::string path_;
};

} // namespace save

#endif // SAVE_SERVE_CLIENT_H
