#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <time.h>

#include "dnn/fig14_report.h"
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

ShardCoordinator::ShardCoordinator(Options opt) : opt_(std::move(opt))
{
    if (opt_.inprocLanes < 0)
        throw ConfigError("--inproc must be >= 0 (got " +
                          std::to_string(opt_.inprocLanes) + ")");
    if (opt_.inprocLanes == 0 && opt_.sockets.empty())
        throw ConfigError("no backends: need --inproc >= 1 or at "
                          "least one --sockets entry");
    if (opt_.maxAttempts < 1)
        throw ConfigError("--max-attempts must be >= 1 (got " +
                          std::to_string(opt_.maxAttempts) + ")");
    if (opt_.stragglerMs < 0)
        throw ConfigError("--straggler-ms must be >= 0 (got " +
                          std::to_string(opt_.stragglerMs) + ")");

    if (opt_.inprocLanes > 0) {
        SimSession::Options so;
        so.mcfg = opt_.mcfg;
        so.scfg = opt_.scfg;
        so.runtime = opt_.runtime;
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
ShardCoordinator::complete(uint32_t idx, const NetResult &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return; // a speculative duplicate lost the race
    p.phase = PointPhase::Done;
    p.result = r;
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
    // (load-shed or returned unworked), only deferred.
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
    if (p.attempts >= opt_.maxAttempts) {
        // Budget exhausted: finish the point as a permanent failure
        // with a value-initialized result — the SweepRunner contract,
        // so the rest of the sweep (and the report) still completes.
        p.phase = PointPhase::Done;
        p.failed = true;
        p.result = NetResult{};
        --remaining_;
        stats_.failures.push_back(
            {fig14Points()[idx].key, reason, p.attempts});
        SAVE_WARN("shard point '", fig14Points()[idx].key,
                  "' failed permanently after ", p.attempts,
                  " dispatch(es): ", reason);
    } else {
        SAVE_WARN("shard point '", fig14Points()[idx].key,
                  "' dispatch ", p.attempts, "/", opt_.maxAttempts,
                  " failed: ", reason, "; re-queuing");
        p.phase = PointPhase::Pending;
    }
    cv_.notify_all();
}

void
ShardCoordinator::setFatal(const std::string &msg)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!fatal_) {
        fatal_ = true;
        fatalIsConfig_ = true;
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
ShardCoordinator::inprocLane(int lane)
{
    (void)lane;
    while (std::optional<uint32_t> got = claim()) {
        const uint32_t idx = *got;
        try {
            complete(idx, session_->runFig14Point(
                              opt_.knobs, static_cast<int>(idx)));
        } catch (const ConfigError &e) {
            // Triage: a config fault would fail identically on every
            // backend — abort the run instead of burning the budget.
            setFatal(e.what());
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

    // Version negotiation: only a daemon that speaks the shard
    // version gets shard jobs; an old one keeps serving its v1 kinds
    // for other clients, we just leave it alone.
    try {
        ServeRequest sreq;
        sreq.kind = ServeKind::Status;
        ServeClient::Reply reply =
            client.call(sreq, nullptr, opt_.rpcTimeoutMs);
        if (reply.kind != ServeClient::Reply::Kind::Ok)
            throw SimError("status probe not answered");
        if (reply.status.version < kServeShardVersion) {
            backendLost(socket,
                        "speaks protocol v" +
                            std::to_string(reply.status.version) +
                            " (batched shard jobs need v" +
                            std::to_string(kServeShardVersion) + ")");
            return;
        }
    } catch (const std::exception &e) {
        backendLost(socket, e.what());
        return;
    }

    // One point per dispatch: the SSHD frame can carry a list, but a
    // round trip costs microseconds against a point's tens of
    // milliseconds to seconds, and a pre-assigned list would sit on
    // one daemon while other backends go idle. The re-queue calls
    // below are no-ops once the point is done.
    int consecutive = 0;
    while (std::optional<uint32_t> got = claim()) {
        const uint32_t idx = *got;
        ServeShardJob job;
        job.knobs = opt_.knobs;
        job.deadlineMs = 0;
        job.points = {idx};

        bool faulted = false;
        std::string fault;
        try {
            ServeClient::Reply reply = client.callShard(
                job,
                [&](const ServeShardAck &ack) {
                    // The index comes off the wire: only an ack for
                    // the dispatched point may complete a point.
                    if (ack.index == idx)
                        complete(idx, ack.result);
                },
                opt_.rpcTimeoutMs);
            if (reply.kind == ServeClient::Reply::Kind::Busy) {
                // Load-shed is an answer, not a fault — hand the
                // point back unworked and back off.
                requeue(idx);
                ++consecutive;
            } else if (reply.kind == ServeClient::Reply::Kind::Error) {
                if (reply.error.kind == WireErrorKind::Config) {
                    setFatal(socket + ": " + reply.error.what);
                    return;
                }
                faulted = true;
                fault = socket + ": " + reply.error.what;
            } else {
                consecutive = 0;
                // The point should have acked; re-queue it
                // defensively.
                requeue(idx);
            }
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
    const std::vector<Fig14Point> &pts = fig14Points();
    points_.assign(pts.size(), Point{});
    remaining_ = pts.size();
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
        lanes.emplace_back(&ShardCoordinator::inprocLane, this, i);
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

    // Merge in config-key order, never arrival order: the one shared
    // renderer walks the canonical enumeration and pulls each result
    // from the completed map — byte-identical to bench_fig14 by
    // construction.
    uint32_t next = 0;
    Fig14Eval eval = [&](const std::string &key, const Fig14Entry &,
                         bool) -> NetResult {
        const uint32_t idx = next++;
        if (idx >= pts.size() || pts[idx].key != key)
            throw SimError("fig14 report walk diverged from "
                           "fig14Points() at '" +
                           key + "'");
        return points_[idx].result;
    };
    return fig14Report(eval);
}

} // namespace save
