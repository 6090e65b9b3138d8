#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <time.h>

#include "serve/client.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

uint64_t
nowNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // namespace

std::vector<std::string>
shardParseSockets(const std::string &list)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string s = list.substr(pos, comma - pos);
        if (!s.empty())
            out.push_back(std::move(s));
        pos = comma + 1;
    }
    return out;
}

ShardCoordinator::ShardCoordinator(Options opt)
    : opt_(std::move(opt)), spec_(findSweep(opt_.sweep))
{
    opt_.knobs.validate();
    if (opt_.inprocLanes < 0)
        throw ConfigError("--inproc must be >= 0 (got " +
                          std::to_string(opt_.inprocLanes) + ")");
    if (opt_.inprocLanes == 0 && opt_.sockets.empty())
        throw ConfigError("no backends: need --inproc >= 1 or at "
                          "least one --sockets entry");
    if (opt_.maxRetries < 0)
        throw ConfigError("--max-retries must be >= 0 (got " +
                          std::to_string(opt_.maxRetries) + ")");
    if (opt_.stragglerMs < 0)
        throw ConfigError("--straggler-ms must be >= 0 (got " +
                          std::to_string(opt_.stragglerMs) + ")");

    if (opt_.inprocLanes > 0) {
        SimSession::Options so;
        so.runtime = opt_.runtime;
        so.maxRetries = opt_.maxRetries;
        so.failFast = opt_.failFast;
        so.proc = opt_.proc;
        session_ = std::make_unique<SimSession>(std::move(so));
    }
}

ShardCoordinator::~ShardCoordinator() = default;

const ResultStore *
ShardCoordinator::resultStore() const
{
    return session_ ? session_->resultStore() : nullptr;
}

std::optional<uint32_t>
ShardCoordinator::claim()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (fatal_ || remaining_ == 0)
            return std::nullopt;
        const uint64_t now = nowNs();
        for (uint32_t i = 0; i < points_.size(); ++i) {
            Point &p = points_[i];
            if (p.phase != PointPhase::Pending)
                continue;
            p.phase = PointPhase::InFlight;
            ++p.attempts;
            p.dispatchNs = now;
            ++stats_.dispatches;
            return i;
        }
        if (opt_.stragglerMs > 0) {
            // Nothing pending but work still in flight: steal a
            // straggler. First completion wins; results are
            // bit-identical, so the duplicate is merely wasted work.
            const uint64_t limit =
                static_cast<uint64_t>(opt_.stragglerMs) * 1000000ull;
            for (uint32_t i = 0; i < points_.size(); ++i) {
                Point &p = points_[i];
                if (p.phase != PointPhase::InFlight ||
                    now - p.dispatchNs <= limit)
                    continue;
                ++p.attempts;
                p.dispatchNs = now;
                ++stats_.speculative;
                ++stats_.dispatches;
                return i;
            }
        }
        // Timed wait so straggler ages are re-examined periodically.
        cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
}

void
ShardCoordinator::complete(uint32_t idx, const std::vector<double> &values)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return; // a speculative duplicate lost the race
    p.phase = PointPhase::Done;
    p.result = values;
    --remaining_;
    ++stats_.computed;
    cv_.notify_all();
}

void
ShardCoordinator::requeue(uint32_t idx)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return;
    // Undo the claim's attempt charge: the point was never tried
    // (load-shed, returned unworked, or never reached the daemon),
    // only deferred.
    --p.attempts;
    p.phase = PointPhase::Pending;
    cv_.notify_all();
}

void
ShardCoordinator::requeueFailure(uint32_t idx, const std::string &reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return;
    ++stats_.requeues;
    const int max_attempts = opt_.maxRetries + 1;
    const std::string &key = keys_[idx];
    if (p.attempts >= max_attempts) {
        // Budget exhausted: finish the point as a permanent failure
        // with a value-initialized result, so the rest of the sweep
        // (and the report) still completes.
        p.phase = PointPhase::Done;
        p.result.assign(spec_.width, 0.0);
        --remaining_;
        stats_.failures.push_back({key, reason, p.attempts});
        SAVE_WARN("sweep point '", key, "' failed permanently after ",
                  p.attempts, " attempt(s): ", reason);
        if (opt_.failFast && !fatal_) {
            fatal_ = true;
            fatalIsConfig_ = false;
            fatalMsg_ = "sweep point '" + key + "' failed after " +
                        std::to_string(p.attempts) +
                        " attempt(s): " + reason;
        }
    } else {
        SAVE_WARN("sweep point '", key, "' attempt ", p.attempts, "/",
                  max_attempts, " failed: ", reason, "; re-queuing");
        p.phase = PointPhase::Pending;
    }
    cv_.notify_all();
}

void
ShardCoordinator::setFatal(const std::string &msg, bool config)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!fatal_) {
        fatal_ = true;
        fatalIsConfig_ = config;
        fatalMsg_ = msg;
    }
    cv_.notify_all();
}

void
ShardCoordinator::backendLost(const std::string &who,
                              const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.backendsExcluded;
    --activeBackends_;
    SAVE_WARN("backend ", who, " excluded: ", why, " (",
              activeBackends_, " backend(s) remain)");
    if (activeBackends_ <= 0 && remaining_ > 0 && !fatal_) {
        fatal_ = true;
        fatalIsConfig_ = false;
        fatalMsg_ = "every backend was lost with " +
                    std::to_string(remaining_) +
                    " point(s) outstanding (last: " + who + ": " + why +
                    ")";
    }
    cv_.notify_all();
}

void
ShardCoordinator::inprocLane()
{
    while (std::optional<uint32_t> got = claim()) {
        const uint32_t idx = *got;
        try {
            complete(idx, session_->runPoint(spec_, opt_.knobs, idx));
        } catch (const ConfigError &e) {
            // Triage: a config fault would fail identically on every
            // backend — abort the run instead of burning the budget.
            setFatal(e.what(), true);
            return;
        } catch (const std::exception &e) {
            requeueFailure(idx, e.what());
        }
    }
}

void
ShardCoordinator::daemonLane(const std::string &socket)
{
    ServeClient client(socket);

    // Only a daemon of this build's protocol version gets point
    // requests; any other is left alone for its own clients.
    try {
        ServeRequest sreq;
        sreq.kind = ServeKind::Status;
        ServeClient::Reply reply =
            client.call(sreq, nullptr, opt_.rpcTimeoutMs);
        if (reply.kind != ServeClient::Reply::Kind::Ok)
            throw SimError("status probe not answered");
        if (reply.status.version != kServeVersion) {
            backendLost(socket,
                        "speaks protocol v" +
                            std::to_string(reply.status.version) +
                            " (this build speaks v" +
                            std::to_string(kServeVersion) + ")");
            return;
        }
    } catch (const std::exception &e) {
        backendLost(socket, e.what());
        return;
    }

    // One point per request: a Sweep request can carry a list, but a
    // round trip costs microseconds against a point's tens of
    // milliseconds to seconds, and a pre-assigned list would sit on
    // one daemon while other backends go idle. The re-queue calls
    // below are no-ops once the point is done.
    int consecutive = 0;
    while (std::optional<uint32_t> got = claim()) {
        const uint32_t idx = *got;
        ServeRequest req;
        req.kind = ServeKind::Sweep;
        req.sweep = spec_.name;
        req.knobs = opt_.knobs;
        req.points = {idx};

        bool faulted = false;
        std::string fault;
        try {
            // The ack comes off the wire: only an ack for the
            // dispatched point, with the spec's width of values, may
            // complete it.
            std::string bad_ack = "answered without acking the point";
            ServeClient::Reply reply = client.call(
                req,
                [&](const ServePointAck &ack) {
                    if (ack.index != idx)
                        return;
                    if (ack.values.size() != spec_.width) {
                        bad_ack = "acked " +
                                  std::to_string(ack.values.size()) +
                                  " value(s), expected " +
                                  std::to_string(spec_.width);
                        return;
                    }
                    complete(idx, ack.values);
                    bad_ack.clear();
                },
                opt_.rpcTimeoutMs);
            if (reply.kind == ServeClient::Reply::Kind::Busy) {
                // Load-shed is an answer, not a fault — hand the
                // point back unworked and back off.
                requeue(idx);
                ++consecutive;
            } else if (reply.kind == ServeClient::Reply::Kind::Error) {
                if (reply.error.kind == WireErrorKind::Config) {
                    setFatal(socket + ": " + reply.error.what, true);
                    return;
                }
                faulted = true;
                fault = socket + ": " + reply.error.what;
            } else if (!bad_ack.empty()) {
                faulted = true;
                fault = socket + ": " + bad_ack;
            } else {
                consecutive = 0;
            }
        } catch (const ServeConnectError &e) {
            // The request never reached the daemon: hand the point back
            // uncharged, as for a load-shed, but count it against
            // this lane so a dead daemon is still excluded.
            requeue(idx);
            ++consecutive;
            fault = socket + ": " + e.what();
        } catch (const std::exception &e) {
            faulted = true;
            fault = socket + ": " + e.what();
        }

        if (faulted) {
            requeueFailure(idx, fault);
            ++consecutive;
        }
        if (consecutive >= kMaxBackendFaults) {
            backendLost(socket,
                        std::to_string(consecutive) +
                            " consecutive failed dispatch(es)" +
                            (fault.empty() ? "" : " (last: " + fault +
                                                      ")"));
            return;
        }
        if (consecutive > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100 * consecutive));
    }
}

std::string
ShardCoordinator::run()
{
    keys_ = sweepKeys(spec_, opt_.knobs);
    points_.assign(keys_.size(), Point{});
    remaining_ = points_.size();
    stats_ = Stats{};

    // The in-process lanes count as ONE backend: they share a session
    // and never exit on point faults, so they live or die together (a
    // ConfigError kills the whole run anyway).
    activeBackends_ = (opt_.inprocLanes > 0 ? 1 : 0) +
                      static_cast<int>(opt_.sockets.size());

    std::vector<std::thread> lanes;
    lanes.reserve(static_cast<size_t>(opt_.inprocLanes) +
                  opt_.sockets.size());
    for (int i = 0; i < opt_.inprocLanes; ++i)
        lanes.emplace_back(&ShardCoordinator::inprocLane, this);
    for (const std::string &s : opt_.sockets)
        lanes.emplace_back(&ShardCoordinator::daemonLane, this, s);
    for (std::thread &t : lanes)
        t.join();

    {
        std::lock_guard<std::mutex> lk(mu_);
        if (fatal_) {
            if (fatalIsConfig_)
                throw ConfigError(fatalMsg_);
            throw SimError(fatalMsg_);
        }
    }

    // Merge by index, never arrival order: the spec's one renderer
    // reads results in point order, so the report is byte-identical
    // to any other run of the sweep by construction.
    SweepResults results;
    results.reserve(points_.size());
    for (Point &p : points_)
        results.push_back(std::move(p.result));
    return spec_.render(opt_.knobs, results);
}

} // namespace save
