/**
 * @file
 * perfbench: runs one named benchmark workload from a seed, checks
 * its outputs, and prints its metrics; the last stdout line is one
 * JSON object. Normally started through perfbench/run.py, which
 * builds this binary first.
 *
 *   perfbench --workload profile|analyze|live --seed N --seconds S
 *             --trace 0|1 --work-dir DIR [--corrupt]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "profile|analyze|live --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--corrupt]\n",
                 why);
    return 2;
}

bool
parseNumber(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt") {
            options.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        double number = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--work-dir") {
            options.work_dir = value;
        } else if (flag == "--seed" && parseNumber(value, &number) &&
                   number >= 0) {
            options.seed = static_cast<std::uint64_t>(number);
        } else if (flag == "--seconds" && parseNumber(value, &number) &&
                   number > 0 && number <= 600) {
            options.seconds = number;
        } else if (flag == "--trace" &&
                   (std::strcmp(value, "0") == 0 ||
                    std::strcmp(value, "1") == 0)) {
            options.trace = value[0] == '1';
        } else {
            return usage(("bad flag or value: " + flag).c_str());
        }
    }
    if (options.work_dir.empty())
        return usage("--work-dir is required");
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    if (ec)
        return usage(("cannot create " + options.work_dir).c_str());

    try {
        Outcome outcome;
        if (options.workload == "profile")
            outcome = runProfile(options);
        else if (options.workload == "analyze")
            outcome = runAnalyze(options);
        else if (options.workload == "live")
            outcome = runLive(options);
        else
            return usage("unknown workload");
        outcome.print();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
