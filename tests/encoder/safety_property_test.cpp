// Proposition 2.1 on the real encoder, tested with random seeds.
//
// A frame whose budget certifies the qmin worst case (evenly paced,
// budget >= macroblocks * the qmin worst case of one body) and whose
// cycle starts on time (t0 = 0) must meet every action deadline and
// the frame budget under the table controller — whatever the frame
// geometry, the budget's headroom, the content (which scales the
// cost-model draws) and the cost model's seed and jitter.  Every fourth
// trial runs the online controller instead, which evaluates the same
// constraints over the system without compiled tables.
#include <gtest/gtest.h>

#include <memory>

#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/synthetic_video.h"
#include "util/rng.h"

namespace qosctrl::enc {
namespace {

TEST(EncoderSafetyProperty, CertifiedBudgetsNeverMiss) {
  const platform::CostTable costs = platform::figure5_cost_table();
  rt::Cycles qmin_wc_per_mb = 0;
  for (int a = 0; a < kNumBodyActions; ++a) {
    qmin_wc_per_mb += costs.at(a, 0).worst_case;
  }

  util::Rng rng(2005);
  int frames = 0;
  int above_qmin = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int cols = static_cast<int>(rng.uniform_i64(1, 5));
    const int rows = static_cast<int>(rng.uniform_i64(1, 4));
    const int macroblocks = cols * rows;
    // A multiple of the macroblock count, from the qmin minimum up to
    // three times it.
    const rt::Cycles budget =
        macroblocks * rng.uniform_i64(qmin_wc_per_mb, 3 * qmin_wc_per_mb);
    const EncoderSystem es = build_encoder_system(macroblocks, budget, costs);

    EncoderConfig config;
    config.width = 16 * cols;
    config.height = 16 * rows;
    platform::CostModelConfig cost_config;
    cost_config.jitter_sigma = rng.uniform(0.0, 0.6);
    FrameEncoder encoder(
        config,
        platform::CostModel(costs, cost_config, util::Rng(rng.next_u64())));

    media::VideoConfig vc;
    vc.width = config.width;
    vc.height = config.height;
    vc.num_frames = 4;
    vc.num_scenes = static_cast<int>(rng.uniform_i64(1, 2));
    vc.seed = rng.next_u64();
    const media::SyntheticVideo video(vc);
    const int qp = static_cast<int>(rng.uniform_i64(2, 20));

    const bool online = trial % 4 == 3;
    std::unique_ptr<qos::Controller> controller;
    if (online) {
      controller = std::make_unique<qos::OnlineController>(*es.system);
    } else {
      controller = std::make_unique<qos::TableController>(es.tables);
    }
    for (int f = 0; f < vc.num_frames; ++f) {
      const FrameStats s = encoder.encode_frame(video.frame_yuv(f),
                                                *controller, *es.system, qp);
      EXPECT_EQ(s.deadline_misses, 0)
          << "trial " << trial << " frame " << f << ": " << cols << "x"
          << rows << " macroblocks, budget " << budget
          << (online ? ", online controller" : "");
      EXPECT_LE(s.encode_cycles, budget)
          << "trial " << trial << " frame " << f;
      ++frames;
      if (s.max_quality > es.system->qmin()) ++above_qmin;
    }
  }
  // Not vacuous: the controller spends headroom above qmin.
  EXPECT_GT(above_qmin, frames / 4);
}

}  // namespace
}  // namespace qosctrl::enc
