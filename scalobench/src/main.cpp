/**
 * @file
 * Entry point of the repository benchmark binary. Every option is
 * required and spelled out; anything else is an error, so a typo can
 * never silently select a default workload or write somewhere
 * unexpected. All files go under --out.
 *
 *     scalobench --workload query_serve|fabric_chaos
 *                --seed N --seconds S --trace 0|1 --out DIR
 *
 * Normally driven by scalobench/run.py, which builds this binary,
 * runs it, and derives the metrics from DIR/raw.json.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using scalobench::Options;

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

bool
parse(int argc, char **argv, Options &options)
{
    bool seed = false, secs = false, trace = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return false;
        }
        const char *flag = argv[i];
        const char *value = argv[++i];
        double number = 0.0;
        if (std::strcmp(flag, "--workload") == 0) {
            options.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            char *end = nullptr;
            options.seed = std::strtoull(value, &end, 10);
            seed = end != value && *end == '\0';
        } else if (std::strcmp(flag, "--seconds") == 0) {
            secs = parseNumber(value, number) && number > 0.0;
            options.seconds = number;
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = std::strcmp(value, "0") == 0 ||
                    std::strcmp(value, "1") == 0;
            options.trace = std::strcmp(value, "1") == 0;
        } else if (std::strcmp(flag, "--out") == 0) {
            options.out = value;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", flag);
            return false;
        }
    }
    return !options.workload.empty() && seed && secs && trace &&
           !options.out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parse(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: %s --workload W --seed N --seconds S "
                     "--trace 0|1 --out DIR\n",
                     argv[0]);
        return 2;
    }
    try {
        if (options.workload == "query_serve")
            return scalobench::runQueryServe(options);
        if (options.workload == "fabric_chaos")
            return scalobench::runFabricChaos(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "scalobench: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown workload %s\n",
                 options.workload.c_str());
    return 2;
}
