#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/client.h"
#include "util/simd.h"

namespace perfbench {

namespace fs = std::filesystem;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail
tailPercentile(const std::vector<double> &v)
{
    for (int pct : {99, 90, 75}) {
        double beyond = static_cast<double>(v.size()) * (100 - pct) / 100.0;
        if (beyond >= 10)
            return {pct, quantile(v, pct / 100.0)};
    }
    return {50, median(v)};
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back({name, value, unit});
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    Rng r(seed * 0x100000001b3ull + stream);
    return r.next();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp." + std::to_string(getpid());
    {
        std::ofstream out(tmp, std::ios::binary);
        out << text;
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
    }
    fs::rename(tmp, path);
}

void
makeDirs(const std::string &path)
{
    fs::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

double
peakRssMb()
{
    struct rusage self {}, kids {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    std::ostringstream os;
    os << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << cpu
       << "\" simd=" << save::simd::backendName()
       << " build=" PERFBENCH_BUILD_TYPE " compiler=\"" PERFBENCH_COMPILER
          "\"";
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

Daemon::~Daemon()
{
    stop();
}

void
Daemon::start(const std::string &bin, const std::string &socket,
              const std::vector<std::string> &args,
              const std::string &log_path)
{
    stop();
    socket_ = socket;
    std::vector<std::string> argv_s{bin, "--socket=" + socket};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // Fork and exec by hand, to set PDEATHSIG: a daemon must not
    // outlive the benchmark even when the benchmark is killed. Only
    // async-signal-safe calls run between fork and exec.
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("cannot fork for " + bin);
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGTERM);
        const int in = open("/dev/null", O_RDONLY);
        const int out = open("/dev/null", O_WRONLY);
        const int err = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
        if (in < 0 || out < 0 || err < 0 || dup2(in, 0) < 0 ||
            dup2(out, 1) < 0 || dup2(err, 2) < 0)
            _exit(127);
        execv(bin.c_str(), argv.data());
        _exit(127);
    }
    pid_ = pid;

    save::ServeClient client(socket);
    save::ServeRequest ping;
    ping.kind = save::ServeKind::Ping;
    const int64_t t0 = nowNs();
    for (;;) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("save-serve exited during start-up; "
                                     "see " + log_path);
        }
        try {
            if (client.call(ping, nullptr, 2000).kind ==
                save::ServeClient::Reply::Kind::Ok)
                return;
        } catch (const std::exception &) {
            // Not listening yet.
        }
        if (secondsSince(t0) > 30) {
            stop();
            throw std::runtime_error("save-serve did not answer a ping "
                                     "within 30 s");
        }
        // Fine-grained: start-up takes a few ms, so a coarse poll would
        // quantize the set-up time.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
Daemon::stop()
{
    if (pid_ <= 0)
        return;
    kill(pid_, SIGTERM);
    const int64_t t0 = nowNs();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 10) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
}

} // namespace perfbench
