// Regenerates tests/golden_detections.inc, the golden (box, score) lists
// asserted by the GoldenDetections tests in tests/test_detect.cpp, on the
// frames of setup_digest::golden_frame. Run after any intentional change to
// detection numerics and redirect the output over the .inc file.
#include <cstdio>

#include "setup_digest.hpp"

using namespace eecs;

int main() {
  const auto bank = detect::make_trained_detectors(777);
  std::printf(
      "// Golden (box, score, probability) lists for the fixed-seed frames in\n"
      "// test_detect.cpp, dataset-major then algorithm-minor in all_algorithms()\n"
      "// order. Captured with %%.17g (exact double round-trip). Do not edit by\n"
      "// hand: regenerate with tools/golden_detections after any intentional\n"
      "// change to detection numerics.\n");
  for (int dataset : {1, 2}) {
    const imaging::Image frame = setup_digest::golden_frame(dataset);
    for (const auto& detector : bank) {
      std::printf("// dataset %d, %s\n{\n", dataset, detect::to_string(detector->id()));
      for (const auto& d : detector->detect(frame)) {
        std::printf("    {{%.17g, %.17g, %.17g, %.17g}, %.17g, %.17g},\n", d.box.x, d.box.y,
                    d.box.w, d.box.h, d.score, d.probability);
      }
      std::printf("},\n");
    }
  }
  return 0;
}
