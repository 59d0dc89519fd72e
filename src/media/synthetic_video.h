// Procedural video source — the stand-in for the paper's camera and its
// 582-frame, 9-sequence benchmark.
//
// Each sequence ("scene") has its own texture, global pan velocity, and
// a handful of moving objects; consecutive scenes are separated by hard
// cuts.  The generator is deterministic in (config, seed) and cheap to
// evaluate at any frame index (no inter-frame state), so tests can
// sample frames at random.
//
// Invariant: the output is bit-exact with evaluating the per-pixel
// formula (stated at SyntheticVideo::render) pixel by pixel.  The
// renderer hoists every factor that depends only on the column or only
// on the row and culls a disc's rows and columns where dy^2 or dx^2 >=
// r^2, but keeps each floating-point expression in its per-pixel
// evaluation order, and the build must not contract a*b+c into an FMA.
// tests/media/synthetic_video_test.cpp pins FNV-1a hashes of every
// plane over a grid of geometries, seeds and frames.
//
// The properties the experiments rely on:
//  * hard cuts defeat motion estimation -> expensive, mostly-intra
//    frames (the paper's I-frame jumps in Figures 6-9);
//  * per-scene motion magnitude varies -> per-scene ME load and
//    bitrate levels differ (the plateaus between jumps);
//  * mild sensor noise keeps residuals non-degenerate.
#pragma once

#include <vector>

#include "media/frame.h"
#include "media/yuv.h"
#include "util/rng.h"

namespace qosctrl::media {

struct VideoConfig {
  int width = 176;    ///< QCIF by default
  int height = 144;
  int num_frames = 582;   ///< paper benchmark length
  int num_scenes = 9;     ///< paper: 9 sequences
  double noise_amplitude = 3.0;  ///< uniform sensor noise, gray levels
  std::uint64_t seed = 2005;
};

/// Deterministic scene-based video generator.
class SyntheticVideo {
 public:
  explicit SyntheticVideo(const VideoConfig& config);

  const VideoConfig& config() const { return config_; }
  int num_frames() const { return config_.num_frames; }

  /// Renders the luma of frame `index` (0-based).
  Frame frame(int index) const;

  /// Renders the full 4:2:0 frame: the luma of frame() plus per-scene
  /// chroma fields that pan with the same motion (so chroma is
  /// motion-compensable exactly like luma).
  YuvFrame frame_yuv(int index) const;

  /// Scene index of a frame (0-based).
  int scene_of(int index) const;

  /// True when `index` is the first frame of a new scene (a hard cut);
  /// frame 0 counts as a cut.
  bool is_scene_cut(int index) const;

  /// First frame index of each scene.
  std::vector<int> scene_starts() const;

 private:
  struct MovingObject {
    double cx, cy;      ///< center at scene start (pixels)
    double vx, vy;      ///< velocity (pixels/frame)
    double radius;      ///< half-size
    double brightness;  ///< additive level
    double phase;       ///< texture phase
    double tint_cb, tint_cr;  ///< chroma shift inside the object
  };
  struct Scene {
    double base_level;     ///< background brightness
    double fx1, fy1, ph1;  ///< background sinusoid 1 (freq/phase)
    double fx2, fy2, ph2;  ///< background sinusoid 2
    double amp1, amp2;
    double pan_vx, pan_vy;  ///< global pan velocity (pixels/frame)
    double cb_base, cr_base;  ///< scene color cast
    double chroma_freq, chroma_amp, chroma_phase;  ///< chroma texture
    std::vector<MovingObject> objects;
  };

  /// Renders frame `index` row by row into `luma` and, when `cb` and
  /// `cr` are non-null, into the half-resolution chroma planes: the one
  /// kernel behind frame() and frame_yuv().
  void render(int index, Frame& luma, Plane* cb, Plane* cr) const;

  VideoConfig config_;
  std::vector<Scene> scenes_;
  std::vector<int> starts_;  ///< first frame of each scene
};

}  // namespace qosctrl::media
