// Shared helpers for the figure-regeneration benches: consistent headers,
// table formatting, and an environment knob for run scale.
//
// Every bench prints the paper's figure/table as text series so the shape of
// the result (who wins, by what factor, where crossovers fall) can be
// compared against the publication; absolute values differ by design (the
// substrate is a simulator, see DESIGN.md).

#ifndef HARVEST_BENCH_BENCH_COMMON_H_
#define HARVEST_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace harvest {

// HARVEST_BENCH_SCALE scales fleet sizes / block counts (default 1.0 =
// minutes-long full bench run; smaller = faster smoke run). A value that is
// not a positive number is a usage error (exit 2), not a full run.
inline double BenchScale() {
  const char* env = std::getenv("HARVEST_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  char* end = nullptr;
  const double scale = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(scale) || scale <= 0.0) {
    std::fprintf(stderr, "HARVEST_BENCH_SCALE must be a positive number, got '%s'\n", env);
    std::exit(2);
  }
  return scale;
}

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("==============================================================================\n");
  std::printf("%s -- %s\n", figure, title);
  std::printf("(reproduction of Zhang et al., OSDI'16; synthetic substrate, seed-deterministic)\n");
  std::printf("==============================================================================\n");
}

inline void PrintRule() {
  std::printf("------------------------------------------------------------------------------\n");
}

}  // namespace harvest

#endif  // HARVEST_BENCH_BENCH_COMMON_H_
