/**
 * @file
 * Regression corpus for the differential uop-stream fuzzer.
 *
 * tests/corpus/ holds shrunken repros of every bug the fuzzer has
 * found (each header comment names the bug and the fix) plus a few
 * generated programs chosen for coverage (squash faults, degenerate
 * masks, long streams). Every entry must pass the full differential
 * matrix — all scheduler policies × fast-forward modes against the
 * ArchExecutor oracle, with leak checks — both with the invariant
 * auditor enabled and disabled (SAVE_AUDIT is read per Core
 * construction, so toggling the environment between checks covers
 * both; in a build without -DSAVE_AUDIT=ON the variable is inert and
 * both passes run unaudited).
 *
 * The corpus directory is baked in at compile time (SAVE_CORPUS_DIR)
 * so the test runs from any working directory.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mem/memory_image.h"
#include "sim/fuzz.h"
#include "trace/trace_reader.h"
#include "util/error.h"

namespace save {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path>
corpusEntries()
{
    std::vector<fs::path> entries;
    for (const auto &de : fs::directory_iterator(SAVE_CORPUS_DIR))
        if (de.path().extension() == ".txt")
            entries.push_back(de.path());
    std::sort(entries.begin(), entries.end());
    return entries;
}

/** Strip '#' comment lines, as save-fuzz --run does. */
std::string
readEntry(const fs::path &p)
{
    std::ifstream f(p);
    EXPECT_TRUE(f.is_open()) << p;
    std::ostringstream text;
    std::string line;
    while (std::getline(f, line))
        if (line.empty() || line[0] != '#')
            text << line << "\n";
    return text.str();
}

/** Restores the previous SAVE_AUDIT value on scope exit. */
class AuditEnvGuard
{
  public:
    AuditEnvGuard()
    {
        const char *v = std::getenv("SAVE_AUDIT");
        had_ = v != nullptr;
        if (had_)
            prev_ = v;
    }
    ~AuditEnvGuard()
    {
        if (had_)
            setenv("SAVE_AUDIT", prev_.c_str(), 1);
        else
            unsetenv("SAVE_AUDIT");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

TEST(FuzzCorpus, HasRegressionEntries)
{
    // The corpus must keep at least the documented set of shrunken
    // fuzzer repros; losing entries silently would gut the regression
    // coverage this suite exists for.
    EXPECT_GE(corpusEntries().size(), 10u);
}

TEST(FuzzCorpus, EveryEntryCleanAuditedAndUnaudited)
{
    AuditEnvGuard guard;
    for (const fs::path &path : corpusEntries()) {
        SCOPED_TRACE(path.filename().string());
        FuzzProgram p;
        ASSERT_NO_THROW(p = fuzzParse(readEntry(path)));
        setenv("SAVE_AUDIT", "1", 1);
        EXPECT_EQ(fuzzCheck(p), "") << path << " (audit on)";
        setenv("SAVE_AUDIT", "0", 1);
        EXPECT_EQ(fuzzCheck(p), "") << path << " (audit off)";
    }
}

TEST(FuzzCorpus, SerializeRoundTrips)
{
    for (const fs::path &path : corpusEntries()) {
        SCOPED_TRACE(path.filename().string());
        std::string text = readEntry(path);
        FuzzProgram p = fuzzParse(text);
        // Parse -> serialize -> parse must be a fixed point.
        std::string ser = fuzzSerialize(p);
        FuzzProgram q = fuzzParse(ser);
        EXPECT_EQ(fuzzSerialize(q), ser);
        EXPECT_EQ(q.uops.size(), p.uops.size());
        EXPECT_EQ(q.faultIndex, p.faultIndex);
        EXPECT_EQ(q.words, p.words);
    }

    // A generated program round-trips through a .savtrc trace too:
    // same uops, same image. The fault is not representable in a trace
    // and is dropped (fuzz.h).
    FuzzProgram p = fuzzGenerate(1);
    ASSERT_GE(p.faultIndex, 0);
    const fs::path f = fs::temp_directory_path() /
                       ("save_fuzz_roundtrip_" + std::to_string(getpid()) +
                        ".savtrc");
    fuzzWriteTrace(p, f.string(), "fuzz");
    {
        TraceReader r(f.string());
        ASSERT_EQ(r.cores(), 1);
        std::vector<Uop> got = r.uops(0);
        ASSERT_EQ(got.size(), p.uops.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].toString(), p.uops[i].toString()) << i;
        MemoryImage want;
        want.addRegion(p.base, p.bytes);
        for (size_t i = 0; i < p.words.size(); ++i)
            want.writeU32(p.base + 4 * i, p.words[i]);
        MemoryImage rebuilt = r.buildImage();
        ASSERT_EQ(rebuilt.numRegions(), 1u);
        EXPECT_EQ(rebuilt.regionBase(0), want.regionBase(0));
        EXPECT_EQ(rebuilt.regionData(0), want.regionData(0));
    }
    fs::remove(f);
}

TEST(FuzzCorpus, GeneratorIsDeterministic)
{
    for (uint64_t seed : {0ull, 7ull, 181ull}) {
        FuzzProgram a = fuzzGenerate(seed);
        FuzzProgram b = fuzzGenerate(seed);
        EXPECT_EQ(fuzzSerialize(a), fuzzSerialize(b)) << seed;
        EXPECT_FALSE(a.uops.empty()) << seed;
    }
}

TEST(FuzzCorpus, ParseRejectsMalformedInput)
{
    EXPECT_THROW(fuzzParse(""), TraceError);
    EXPECT_THROW(fuzzParse("not-savefuzz v1\nend\n"), TraceError);
    // Missing the end marker (truncated file).
    EXPECT_THROW(fuzzParse("savefuzz v1\nbase 65536\nbytes 4096\n"),
                 TraceError);
    // Word index outside the region.
    EXPECT_THROW(fuzzParse("savefuzz v1\nbase 65536\nbytes 64\n"
                           "word 999 0x1\nend\n"),
                 TraceError);
    // Opcode out of range.
    EXPECT_THROW(fuzzParse("savefuzz v1\nbase 65536\nbytes 64\n"
                           "uop 99 0 1 2 0 -1 0 0\nend\n"),
                 TraceError);
}

} // namespace
} // namespace save
