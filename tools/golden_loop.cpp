// Regenerates tests/golden_loop.inc, the closed-loop goldens the GoldenLoop
// tests in tests/test_integration.cpp assert: the %.17g report of every
// SimulationResult field for the four legs of tests/loop_digest.hpp, plus
// the size and CRC32 of the durable leg's round-1 snapshot. Build it at any
// commit and redirect the output over the .inc file to re-capture.
#include <cstdio>
#include <string>

#include "loop_digest.hpp"

using namespace eecs;

namespace {

void print_entry(const char* name, const std::string& digest) {
  std::printf("{\"%s\",\n", name);
  for (const std::string& line : setup_digest::lines(digest)) {
    std::printf("    \"%s\\n\"\n", line.c_str());
  }
  std::printf("},\n");
}

}  // namespace

int main() {
  const core::DetectorBank bank = detect::make_trained_detectors(1234);
  const core::OfflineKnowledge knowledge = setup_digest::reference_knowledge(bank, 4);
  std::printf(
      "// Closed-loop goldens for tests/test_integration.cpp (GoldenLoop): the\n"
      "// %%.17g report of every SimulationResult field for each leg of\n"
      "// tests/loop_digest.hpp, and the size and CRC32 of the durable leg's\n"
      "// round-1 snapshot. Do not edit by hand: regenerate with tools/golden_loop\n"
      "// after any intentional change to loop numerics.\n");
  print_entry("subset_downgrade", loop_digest::subset_downgrade(bank, knowledge));
  const loop_digest::DurableDigest durable =
      loop_digest::durable_resume(bank, knowledge, "golden_loop_durable.snap");
  print_entry("durable_resume", durable.result);
  print_entry("durable_snapshot", durable.snapshot);
  print_entry("fixed_combo", loop_digest::fixed_combo(bank, knowledge));
  print_entry("anomaly_advisory", loop_digest::anomaly_advisory(bank, knowledge));
  return 0;
}
