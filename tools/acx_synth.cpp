// acx_synth — deterministic V1 dataset generator.
//
//   acx_synth --out DIR [--paper-event 1..6] [--scale F] [--seed S]
//   acx_synth --list
//
// Writes the chosen paper event (default: event 1) as <station><comp>.v1
// files. Same (event, scale, seed) always produces identical bytes.

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "synth/synth.hpp"

int main(int argc, char** argv) {
  std::string out_dir;
  int event_index = 1;
  double scale = 1.0;
  std::uint64_t seed = 42;
  bool list = false;
  const bool parsed = acx::cli::parse_flags(
      argc, argv,
      {{"--out", "DIR", acx::cli::text(out_dir)},
       {"--paper-event", "N", acx::cli::integer(event_index)},
       {"--scale", "F", acx::cli::number(scale)},
       {"--seed", "S", acx::cli::integer(seed)},
       {"--list", nullptr, acx::cli::set(list, true)}});
  if (!parsed) return 2;

  const auto events = acx::synth::paper_events();
  if (list) {
    std::printf("# idx  id    date        files  total_points\n");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      std::printf("  %zu    %s  %s  %5d  %12ld\n", i + 1, e.id.c_str(),
                  e.date.c_str(), e.n_files, e.total_points);
    }
    return 0;
  }

  if (out_dir.empty()) {
    std::fprintf(stderr, "acx_synth: --out DIR is required (or --list)\n");
    return 2;
  }
  if (event_index < 1 || event_index > static_cast<int>(events.size())) {
    std::fprintf(stderr, "acx_synth: --paper-event must be 1..%zu\n",
                 events.size());
    return 2;
  }
  if (scale <= 0) {
    std::fprintf(stderr, "acx_synth: --scale must be positive\n");
    return 2;
  }

  acx::RealFileSystem fs;
  const acx::synth::EventSpec& spec =
      events[static_cast<std::size_t>(event_index - 1)];
  acx::synth::SynthConfig cfg{seed, scale};
  auto written = acx::synth::build_event_dataset(fs, out_dir, spec, cfg);
  if (!written.ok()) {
    std::fprintf(stderr, "acx_synth: %s\n",
                 written.error().to_string().c_str());
    return 1;
  }
  std::printf("acx_synth: event %s -> %s (%zu files, scale %g, seed %llu)\n",
              spec.id.c_str(), out_dir.c_str(), written.value().size(), scale,
              static_cast<unsigned long long>(seed));
  return 0;
}
