/**
 * @file
 * ServeClient: the client side of the save-serve protocol. One
 * request per connection: connect, send SREQ, consume streamed SPRG
 * progress frames, and return the terminal SRES/SERR/SBSY as a typed
 * Reply. `save-ctl` and the serve tests are the two users.
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
    /** Progress callback for streamed sweeps. */
    using ProgressFn = std::function<void(const ServeProgress &)>;

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
        std::string text;           ///< Fig14 report
    };

    /** Does not connect; every call() opens its own connection. */
    explicit ServeClient(std::string socketPath);

    /**
     * Send one request and wait for the terminal reply. `timeout_ms`
     * bounds every frame read (< 0 waits forever); a sweep that
     * streams progress resets the clock at each frame. Throws
     * ServeConnectError when the daemon is unreachable, SimError when
     * it times out, TraceError on protocol corruption.
     */
    Reply call(const ServeRequest &req,
               const ProgressFn &progress = nullptr,
               int timeout_ms = -1);

    /** Per-point ack callback for shard jobs. */
    using AckFn = std::function<void(const ServeShardAck &)>;

    /**
     * Send one SSHD shard job and stream every per-point ack through
     * `onAck`; the terminal frame becomes the Reply exactly as in
     * call(), and failures throw as in call(). `timeout_ms` bounds
     * every frame read and resets at each ack.
     */
    Reply callShard(const ServeShardJob &job,
                    const AckFn &onAck = nullptr,
                    int timeout_ms = -1);

    const std::string &socketPath() const { return path_; }

  private:
    std::string path_;
};

} // namespace save

#endif // SAVE_SERVE_CLIENT_H
