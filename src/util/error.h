/**
 * @file
 * Typed simulation errors.
 *
 * The gem5-style macros in logging.h (SAVE_PANIC / SAVE_FATAL) kill
 * the process, which is right for internal invariant violations but
 * wrong for everything a long-running sweep should survive: bad user
 * configuration, a wedged slice simulation, a corrupt cache file.
 * Those conditions throw a SimError subclass instead, carrying enough
 * context (core id, cycle, uop sequence number, configuration hash)
 * that a failure buried in an hours-long fig14-19 sweep is actionable
 * from the report alone.
 *
 * Taxonomy:
 *   ConfigError   -- the user asked for something impossible; thrown
 *                    by the validate() methods and argument parsing.
 *                    Always actionable: names the field, the value,
 *                    and the accepted range.
 *   TraceError    -- a uop stream is malformed or inconsistent with
 *                    the machine it is bound to (also used for
 *                    injected slice faults, see fault_injection.h).
 *   DeadlockError -- the retirement watchdog detected no forward
 *                    progress; carries a pipeline snapshot.
 *   CacheError    -- a persistent artifact cannot be read or written;
 *                    carries the path. The result store itself never
 *                    throws (it warns and degrades); the type survives
 *                    as a worker wire error kind.
 *   AuditError    -- the cycle-granular invariant auditor (built with
 *                    -DSAVE_AUDIT=ON; src/sim/auditor.h) found the
 *                    pipeline in an inconsistent state; carries the
 *                    same pipeline snapshot as the watchdog.
 *   WorkerError   -- a sandboxed slice worker process (src/proc) died
 *                    or misbehaved: crashed on a signal, overran its
 *                    wall-clock deadline, was killed for memory, or
 *                    broke the wire protocol. kind() carries the
 *                    exit-status triage so the pool's retry/backoff
 *                    and degradation policies can tell a clean
 *                    in-worker error from a dead process.
 */

#ifndef SAVE_UTIL_ERROR_H
#define SAVE_UTIL_ERROR_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace save {

/** Where an error happened; unset fields are omitted from the
 *  formatted message (core -1, cycle/seq -1, hash 0 = unset). */
struct SimContext
{
    int coreId = -1;
    int64_t cycle = -1;
    int64_t uopSeq = -1;
    uint64_t configHash = 0;

    /** " [core 3, cycle 1024, uop seq 77, config 0xabc...]" or ""
     *  when nothing is set. */
    std::string toString() const;
};

/** Base class for all recoverable simulation errors. */
class SimError : public std::runtime_error
{
  public:
    using Context = SimContext;

    explicit SimError(const std::string &what, Context ctx = Context());

    const Context &context() const { return ctx_; }

  private:
    Context ctx_;
};

/** Invalid user-supplied configuration or arguments. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &what, Context ctx = Context())
        : SimError(what, ctx)
    {
    }
};

/** Malformed or inconsistent uop trace (and injected slice faults). */
class TraceError : public SimError
{
  public:
    explicit TraceError(const std::string &what, Context ctx = Context())
        : SimError(what, ctx)
    {
    }
};

/** The watchdog saw no retirement progress; snapshot() holds the
 *  pipeline state dump taken when it fired. */
class DeadlockError : public SimError
{
  public:
    DeadlockError(const std::string &what, std::string snapshot,
                  Context ctx = Context());

    const std::string &snapshot() const { return snapshot_; }

  private:
    std::string snapshot_;
};

/** The invariant auditor caught a microarchitectural inconsistency;
 *  snapshot() holds the pipeline dump taken at the violation. */
class AuditError : public SimError
{
  public:
    AuditError(const std::string &what, std::string snapshot,
               Context ctx = Context());

    const std::string &snapshot() const { return snapshot_; }

  private:
    std::string snapshot_;
};

/** A sandboxed slice worker process failed at the process level (as
 *  opposed to sending back a clean typed error). Thrown only by the
 *  parent side of src/proc; the pool maps it into respawn/backoff
 *  bookkeeping and, past the crash budget, graceful in-process
 *  fallback. */
class WorkerError : public SimError
{
  public:
    enum class Kind : uint8_t
    {
        /** Killed by a signal (SIGSEGV/SIGBUS/SIGABRT/...). */
        Crash,
        /** Parent-enforced per-slice deadline expired; SIGKILLed. */
        Timeout,
        /** Out of memory: RSS-cap bad_alloc or an OOM-style kill. */
        Oom,
        /** Exited with a nonzero status and no error frame. */
        Exit,
        /** Sent a malformed/corrupt frame or violated the protocol. */
        Protocol,
        /** Could not be spawned (fork/exec/handshake failure). */
        Spawn,
    };

    WorkerError(Kind kind, const std::string &what,
                Context ctx = Context());

    Kind kind() const { return kind_; }

    /** Stable lower-case label ("crash", "timeout", ...). */
    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/** Persistent artifact I/O or format failure. */
class CacheError : public SimError
{
  public:
    CacheError(const std::string &what, std::string path,
               Context ctx = Context());

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace save

#endif // SAVE_UTIL_ERROR_H
