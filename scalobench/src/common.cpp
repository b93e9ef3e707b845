#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

#include "scalo/util/simd.hpp"

#ifndef SCALOBENCH_BUILD_TYPE
#define SCALOBENCH_BUILD_TYPE ""
#endif

namespace scalobench {

void
JsonWriter::separator(const char *key)
{
    if (!first.empty()) {
        if (!first.back())
            out += ',';
        first.back() = false;
    }
    if (key) {
        out += '"';
        out += key;
        out += "\":";
    }
}

JsonWriter &
JsonWriter::beginObject(const char *key)
{
    separator(key);
    out += '{';
    first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out += '}';
    first.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const char *key)
{
    separator(key);
    out += '[';
    first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out += ']';
    first.pop_back();
    return *this;
}

void
JsonWriter::append(double number)
{
    if (!std::isfinite(number)) {
        out += "null";
        return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", number);
    out += buffer;
}

JsonWriter &
JsonWriter::number(double number)
{
    separator(nullptr);
    append(number);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *key, double number)
{
    separator(key);
    append(number);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *key, const std::string &text)
{
    separator(key);
    out += '"';
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *key, bool flag)
{
    separator(key);
    out += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::numbers(const char *key, const std::vector<double> &values)
{
    beginArray(key);
    for (const double v : values)
        number(v);
    return endArray();
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

bool
pinToCpuSlot(int slot, int slots)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) < slots)
        return false;
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || seen++ != slot)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    }
    return false;
}

void
writeSpans(JsonWriter &json, const SpanRecorder &spans)
{
    json.beginArray("spans");
    for (const Span &span : spans.all()) {
        json.beginObject()
            .value("name", span.name)
            .value("start_ns", static_cast<double>(span.startNs))
            .value("end_ns", static_cast<double>(span.endNs))
            .value("parent", static_cast<double>(span.parent))
            .value("request", static_cast<double>(span.request))
            .endObject();
    }
    json.endArray();
}

void
writeChecks(JsonWriter &json, const std::vector<Check> &checks)
{
    json.beginArray("checks");
    for (const Check &check : checks)
        json.beginObject()
            .value("name", check.name)
            .value("ok", check.ok)
            .value("detail", check.detail)
            .endObject();
    json.endArray();
}

void
writeStamp(JsonWriter &json)
{
    json.beginObject("stamp")
        .value("nproc",
               static_cast<double>(std::thread::hardware_concurrency()))
        .value("build_type", std::string(SCALOBENCH_BUILD_TYPE))
        .value("simd", std::string(scalo::simd::kModeName))
        .value("simd_lanes", static_cast<double>(scalo::simd::kLanes))
        .endObject();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path, std::ios::binary);
    file.write(text.data(), static_cast<std::streamsize>(text.size()));
    return static_cast<bool>(file);
}

} // namespace scalobench
