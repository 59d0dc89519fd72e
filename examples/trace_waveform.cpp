// Waveform tracing demo: run one controlled cycle against the platform
// cost model and dump a VCD file viewable in GTKWave — the action id,
// quality level and busy flag over virtual cycle time.
//
//   ./build/examples/trace_waveform [out.vcd]
#include <cstdio>

#include "encoder/body.h"
#include "encoder/system_builder.h"
#include "platform/vcd.h"
#include "qos/controller.h"
#include "qos/runner.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace qosctrl;
  const char* path = argc > 1 ? argv[1] : "cycle.vcd";

  // One frame of the paper's encoder geometry, shrunk to 12 macroblocks
  // so the waveform is comfortably browsable.
  const auto es = enc::build_encoder_system(12, 12LL * 197531,
                                            platform::figure5_cost_table());
  platform::CostModel costs(platform::figure5_cost_table(),
                            platform::CostModelConfig{}, util::Rng(7));
  qos::TableController controller(es.tables);

  // The waveform's action signal is the unrolled action id
  // (macroblock * 9 + body action); the cost table is indexed by body
  // action.
  const qos::CycleTrace trace = qos::run_cycle(
      *es.system, controller,
      [&](rt::ActionId action, rt::QualityLevel quality) {
        const enc::UnrolledAction ua = enc::decode_unrolled(action);
        // Per-MB content variation: odd macroblocks are "busy".
        const double work = (ua.macroblock % 2 == 0) ? 0.7 : 1.3;
        return costs.sample(enc::id(ua.action),
                            static_cast<std::size_t>(quality), work);
      });

  if (!platform::write_vcd_file(path, trace.steps)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %s: %zu events over %lld virtual cycles, %d misses\n",
              path, trace.steps.size(),
              static_cast<long long>(trace.total_cycles),
              trace.deadline_misses);
  std::printf("view with:  gtkwave %s\n", path);
  return 0;
}
