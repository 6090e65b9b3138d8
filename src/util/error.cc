#include "util/error.h"

#include <sstream>

namespace save {

std::string
SimError::Context::toString() const
{
    if (coreId < 0 && cycle < 0 && uopSeq < 0 && configHash == 0)
        return "";
    std::ostringstream os;
    os << " [";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ", ";
        first = false;
    };
    if (coreId >= 0) {
        sep();
        os << "core " << coreId;
    }
    if (cycle >= 0) {
        sep();
        os << "cycle " << cycle;
    }
    if (uopSeq >= 0) {
        sep();
        os << "uop seq " << uopSeq;
    }
    if (configHash != 0) {
        sep();
        os << "config 0x" << std::hex << configHash;
    }
    os << "]";
    return os.str();
}

SimError::SimError(const std::string &what, Context ctx)
    : std::runtime_error(what + ctx.toString()), ctx_(ctx)
{
}

DeadlockError::DeadlockError(const std::string &what,
                             std::string snapshot, Context ctx)
    : SimError(what, ctx), snapshot_(std::move(snapshot))
{
}

AuditError::AuditError(const std::string &what, std::string snapshot,
                       Context ctx)
    : SimError("pipeline invariant violated: " + what, ctx),
      snapshot_(std::move(snapshot))
{
}

WorkerError::WorkerError(Kind kind, const std::string &what,
                         Context ctx)
    : SimError(std::string("worker ") + kindName(kind) + ": " + what,
               ctx),
      kind_(kind)
{
}

const char *
WorkerError::kindName(Kind kind)
{
    switch (kind) {
    case Kind::Crash:
        return "crash";
    case Kind::Timeout:
        return "timeout";
    case Kind::Oom:
        return "oom";
    case Kind::Exit:
        return "exit";
    case Kind::Protocol:
        return "protocol";
    case Kind::Spawn:
        return "spawn";
    }
    return "unknown";
}

} // namespace save
