// Regenerates tests/golden_offline.inc, the offline-knowledge goldens the
// GoldenOffline tests in tests/test_core.cpp assert: every profile field and
// the comparator's similarities on a fixed probe, at %.17g, for
// run_offline_training(make_trained_detectors(1234), {1}, 42, {HOG, ACF})
// with frames_per_item 4 and 14 (14 exceeds feature_frames_per_item, the
// other side of the segment-hop arithmetic). Run after any intentional
// change to offline numerics and redirect the output over the .inc file.
#include <cstdio>
#include <string>

#include "setup_digest.hpp"

using namespace eecs;

int main() {
  const core::DetectorBank bank = detect::make_trained_detectors(1234);
  std::printf(
      "// Offline-knowledge goldens for tests/test_core.cpp (GoldenOffline): every\n"
      "// profile field and the comparator's similarities on a fixed probe, for\n"
      "// run_offline_training(make_trained_detectors(1234), {1}, 42, {HOG, ACF})\n"
      "// at each frames_per_item. Captured with %%.17g (exact double round-trip). Do\n"
      "// not edit by hand: regenerate with tools/golden_offline after any\n"
      "// intentional change to offline numerics.\n");
  for (int frames_per_item : {4, 14}) {
    const std::string digest =
        setup_digest::knowledge(setup_digest::reference_knowledge(bank, frames_per_item));
    std::printf("// frames_per_item %d\n{%d,\n", frames_per_item, frames_per_item);
    for (const std::string& line : setup_digest::lines(digest)) {
      std::printf("    \"%s\\n\"\n", line.c_str());
    }
    std::printf("},\n");
  }
  return 0;
}
