// Procedural video source — the stand-in for the paper's camera and its
// 582-frame, 9-sequence benchmark.
//
// Each sequence ("scene") has its own texture, global pan velocity, and
// a handful of moving objects; consecutive scenes are separated by hard
// cuts.  The generator is deterministic in (config, seed) and any frame
// can be rendered at any time, in any order, so tests can sample frames
// at random.
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
// The only inter-frame state is a caller-owned SyntheticVideo::Carry.
// It holds the background (base level plus both sinusoids, as doubles)
// of the last frame rendered through it, keyed by the seed, geometry,
// frame count, scene count and scene that determine it.  Every pan
// velocity is an integer (asserted where the scenes are built), so the
// background is a pure function of a pixel's integer world position,
// and the next render of the same scene shifts the carried rows by
// (pan_vx * dt, pan_vy * dt) and evaluates only the newly exposed rows
// and columns.  Discs and noise are rendered afresh every time.  A
// carried render is byte-identical to a cold one in any access order;
// a carry keyed to another video or scene is rebuilt, never reused.
//
// The properties the experiments rely on:
//  * hard cuts defeat motion estimation -> expensive, mostly-intra
//    frames (the paper's I-frame jumps in Figures 6-9);
//  * per-scene motion magnitude varies -> per-scene ME load and
//    bitrate levels differ (the plateaus between jumps);
//  * mild sensor noise keeps residuals non-degenerate.
#pragma once

#include <cstdint>
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
  std::uint64_t seed = 2005;
};

/// Deterministic scene-based video generator.  Const and shareable
/// across threads; a Carry belongs to one caller at a time.
class SyntheticVideo {
 public:
  /// The background of the last frame rendered through it (see the
  /// header comment).  Starts empty; rendering a scene's last frame
  /// empties it again and frees its buffer.
  class Carry {
   public:
    bool empty() const { return background_.empty(); }

   private:
    friend class SyntheticVideo;
    /// Everything the background of a frame depends on, besides its
    /// index.
    struct Key {
      std::uint64_t seed;
      int width, height, num_frames, num_scenes, scene;
      bool operator==(const Key&) const = default;
    };
    Key key_{};
    int index_ = -1;  ///< the frame background_ belongs to
    std::vector<double> background_;  ///< width * height, row-major
  };

  /// Rejects geometry that is not a whole number of macroblocks.
  explicit SyntheticVideo(const VideoConfig& config);

  const VideoConfig& config() const { return config_; }
  int num_frames() const { return config_.num_frames; }

  /// Renders the luma of frame `index` (0-based).  With a `carry`, the
  /// background is shifted from the carried frame where it can be and
  /// the carry then holds frame `index`; the output is the same.
  Frame frame(int index, Carry* carry = nullptr) const;

  /// Renders the full 4:2:0 frame: the luma of frame() plus per-scene
  /// chroma fields that pan with the same motion (so chroma is
  /// motion-compensable exactly like luma).  `carry` as for frame().
  YuvFrame frame_yuv(int index, Carry* carry = nullptr) const;

  /// Scene index of a frame (0-based).
  int scene_of(int index) const;

  /// Global pan of scene `scene`, in whole pixels per frame.
  struct Pan {
    int vx, vy;
  };
  Pan pan_of(int scene) const;

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
    double pan_vx, pan_vy;  ///< global pan velocity (whole pixels/frame)
    double cb_base, cr_base;  ///< scene color cast
    double chroma_freq, chroma_amp, chroma_phase;  ///< chroma texture
    std::vector<MovingObject> objects;
  };

  /// Renders frame `index` row by row into `luma` and, when `cb` and
  /// `cr` are non-null, into the half-resolution chroma planes: the one
  /// kernel behind frame() and frame_yuv(), with or without a carry.
  void render(int index, Frame& luma, Plane* cb, Plane* cr,
              Carry* carry) const;

  VideoConfig config_;
  std::vector<Scene> scenes_;
  std::vector<int> starts_;  ///< first frame of each scene
};

}  // namespace qosctrl::media
