// sadp_perfbench: the end-to-end route benchmark program (see README.md).
//
//   sadp_perfbench --workload test1_full|test3_alg1|eco_240 --seed N
//                  --seconds S --trace 0|1 [--design-seed N] [--scale F]
//                  [--edits N] [--corrupt-fingerprint]
//
// Prints one JSON line describing the environment, one per failed
// correctness check, and, last, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 0 when the run completed (whether or not it was correct),
// 2 on bad arguments.
#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "sadp/bitmap.hpp"
#include "workloads.hpp"

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// CPU brand string from CPUID leaves 0x80000002..4.
std::string cpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const std::size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

void printEnv(const perfbench::Args& a) {
  const char* forced = std::getenv("SADP_FORCE_SCALAR");
  const sadp::SimdLevel lvl = sadp::activeBitmapSimdLevel();
  std::printf(
      "{\"env\":{\"workload\":%s,\"seed\":%llu,\"design_seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,"
      "\"scale\":%s,\"nproc\":%ld,\"threads\":1,\"build_type\":%s,"
      "\"compiler\":%s,\"cpu\":%s,\"simd\":%s,\"cpu_avx2\":%s,"
      "\"sadp_force_scalar\":%s}}\n",
      jsonString(a.workload).c_str(), (unsigned long long)a.seed,
      (unsigned long long)a.designSeed,
      jsonNumber(a.seconds).c_str(), a.trace ? 1 : 0,
      jsonNumber(a.scale).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(),
      jsonString(PERFBENCH_COMPILER).c_str(), jsonString(cpuModel()).c_str(),
      jsonString(lvl == sadp::SimdLevel::Avx2 ? "avx2" : "scalar").c_str(),
      sadp::cpuSupportsAvx2() ? "true" : "false",
      forced ? jsonString(forced).c_str() : "null");
}

void printResult(const perfbench::Result& r) {
  for (const std::string& m : r.mismatches) {
    std::printf("{\"mismatch\":%s}\n", jsonString(m).c_str());
  }
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) out += ',';
    out += jsonString(m.name) + ":{\"value\":" + jsonNumber(m.value) +
           ",\"unit\":" + jsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sadp_perfbench: %s\nusage: sadp_perfbench --workload "
               "test1_full|test3_alg1|eco_240 --seed N --seconds S "
               "--trace 0|1 [--design-seed N] [--scale F] [--edits N] "
               "[--corrupt-fingerprint]\n",
               why);
  std::exit(2);
}

perfbench::Args parseArgs(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--corrupt-fingerprint") {
      a.corruptFingerprint = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + opt).c_str());
    const std::string val = argv[++i];
    try {
      if (opt == "--workload") {
        a.workload = val;
      } else if (opt == "--seed") {
        a.seed = std::stoull(val);
      } else if (opt == "--design-seed") {
        a.designSeed = std::stoull(val);
      } else if (opt == "--seconds") {
        a.seconds = std::stod(val);
      } else if (opt == "--trace") {
        if (val != "0" && val != "1") usage("--trace wants 0 or 1");
        a.trace = val == "1";
      } else if (opt == "--scale") {
        a.scale = std::stod(val);
      } else if (opt == "--edits") {
        a.edits = std::stoi(val);
      } else {
        usage(("unknown option " + opt).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + opt).c_str());
    }
  }
  if (a.workload != "test1_full" && a.workload != "test3_alg1" &&
      a.workload != "eco_240") {
    usage("unknown --workload");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  if (!(a.scale > 0.0) || a.scale > 1.0) usage("--scale must be in (0, 1]");
  if (a.edits < 1) usage("--edits must be >= 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parseArgs(argc, argv);
  printEnv(args);
  std::fflush(stdout);
  const perfbench::Result r = args.workload == "eco_240"
                                  ? perfbench::runEcoWorkload(args)
                                  : perfbench::runRouteWorkload(args);
  printResult(r);
  return 0;
}
