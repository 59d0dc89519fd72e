#include "media/synthetic_video.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace qosctrl::media {
namespace {

constexpr double kPi = 3.14159265358979323846;
/// Amplitude of the uniform sensor noise, in gray levels.
constexpr double kNoiseAmplitude = 3.0;

/// Cheap deterministic per-pixel noise hash in [-1, 1], split in two:
/// noise(x, y, t) = noise_at(noise_row(y, t, seed), x).  The key is an
/// XOR of per-coordinate products, so the row's share is folded once.
std::uint64_t noise_row(int y, int t, std::uint64_t seed) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)) * 0x165667b19e3779f9ULL;
  return h;
}

double noise_at(std::uint64_t row, int x) {
  std::uint64_t h =
      row ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) *
                0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return (static_cast<double>(h & 0xffffff) / double(0xffffff)) * 2.0 - 1.0;
}

Sample clamp_sample(double v) {
  return static_cast<Sample>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

SyntheticVideo::SyntheticVideo(const VideoConfig& config) : config_(config) {
  QC_EXPECT(config.width > 0 && config.height > 0,
            "video dimensions must be positive");
  QC_EXPECT(config.width % kMacroBlockSize == 0 &&
                config.height % kMacroBlockSize == 0,
            "video dimensions must be multiples of the macroblock size");
  QC_EXPECT(config.num_frames >= 1, "at least one frame required");
  QC_EXPECT(config.num_scenes >= 1 &&
                config.num_scenes <= config.num_frames,
            "scene count must be in [1, num_frames]");

  util::Rng rng(config.seed);
  const double w = config.width;
  const double h = config.height;
  for (int s = 0; s < config.num_scenes; ++s) {
    Scene scene;
    scene.base_level = rng.uniform(80.0, 170.0);
    scene.fx1 = rng.uniform(0.01, 0.08);
    scene.fy1 = rng.uniform(0.01, 0.08);
    scene.ph1 = rng.uniform(0.0, 2.0 * kPi);
    scene.fx2 = rng.uniform(0.08, 0.35);
    scene.fy2 = rng.uniform(0.08, 0.35);
    scene.ph2 = rng.uniform(0.0, 2.0 * kPi);
    scene.amp1 = rng.uniform(15.0, 40.0);
    scene.amp2 = rng.uniform(10.0, 25.0);
    // Scenes come in three activity classes so per-scene load levels
    // differ visibly, as in the paper's figures.  Pans are integer-
    // valued so full-pel motion search *can* lock on exactly — provided
    // the window is wide enough.  Two scenes (the paper's two skip-
    // burst regions) pan at Chebyshev radius 5: beyond constant q=3
    // (radius 3) and q=4 (radius 4), trackable only at q >= 5.
    const bool busy = (s == 2 || s == 6) || (s >= 9 && s % 3 == 1);
    const bool medium = !busy && (s % 2 == 1);
    const int pan_mag = busy ? 5 : (medium ? 2 : 1);
    scene.pan_vx = static_cast<double>(rng.uniform_i64(-pan_mag, pan_mag));
    scene.pan_vy = static_cast<double>(rng.uniform_i64(-pan_mag, pan_mag));
    if (busy) {
      // Force the dominant component to the full magnitude.
      scene.pan_vx = (scene.pan_vx >= 0) ? pan_mag : -pan_mag;
    }
    // A Carry shifts the background by whole pixels (see the header).
    QC_EXPECT(scene.pan_vx == std::trunc(scene.pan_vx) &&
                  scene.pan_vy == std::trunc(scene.pan_vy),
              "pan velocities must be whole pixels per frame");
    const int n_objects = static_cast<int>(rng.uniform_i64(3, 6));
    for (int o = 0; o < n_objects; ++o) {
      MovingObject obj;
      obj.cx = rng.uniform(0.0, w);
      obj.cy = rng.uniform(0.0, h);
      const double speed = busy ? 5.0 : (medium ? 3.5 : 2.5);
      obj.vx = rng.uniform(-speed, speed);
      obj.vy = rng.uniform(-speed, speed);
      obj.radius = rng.uniform(8.0, 24.0);
      obj.brightness = rng.uniform(-60.0, 60.0);
      obj.phase = rng.uniform(0.0, 2.0 * kPi);
      obj.tint_cb = rng.uniform(-30.0, 30.0);
      obj.tint_cr = rng.uniform(-30.0, 30.0);
      scene.objects.push_back(obj);
    }
    scene.cb_base = rng.uniform(110.0, 146.0);
    scene.cr_base = rng.uniform(110.0, 146.0);
    scene.chroma_freq = rng.uniform(0.005, 0.03);
    scene.chroma_amp = rng.uniform(8.0, 20.0);
    scene.chroma_phase = rng.uniform(0.0, 2.0 * kPi);
    scenes_.push_back(std::move(scene));
  }

  // Evenly sized scenes (remainder spread over the first ones).
  starts_.resize(static_cast<std::size_t>(config.num_scenes));
  const int base = config.num_frames / config.num_scenes;
  const int extra = config.num_frames % config.num_scenes;
  int at = 0;
  for (int s = 0; s < config.num_scenes; ++s) {
    starts_[static_cast<std::size_t>(s)] = at;
    at += base + (s < extra ? 1 : 0);
  }
}

int SyntheticVideo::scene_of(int index) const {
  QC_EXPECT(index >= 0 && index < config_.num_frames,
            "frame index out of range");
  int s = config_.num_scenes - 1;
  while (s > 0 && starts_[static_cast<std::size_t>(s)] > index) --s;
  return s;
}

bool SyntheticVideo::is_scene_cut(int index) const {
  QC_EXPECT(index >= 0 && index < config_.num_frames,
            "frame index out of range");
  for (int s : starts_) {
    if (s == index) return true;
  }
  return false;
}

std::vector<int> SyntheticVideo::scene_starts() const { return starts_; }

SyntheticVideo::Pan SyntheticVideo::pan_of(int scene) const {
  QC_EXPECT(scene >= 0 && scene < config_.num_scenes,
            "scene index out of range");
  const Scene& sc = scenes_[static_cast<std::size_t>(scene)];
  return {static_cast<int>(sc.pan_vx), static_cast<int>(sc.pan_vy)};
}

Frame SyntheticVideo::frame(int index, Carry* carry) const {
  Frame out(config_.width, config_.height);
  render(index, out, nullptr, nullptr, carry);
  return out;
}

YuvFrame SyntheticVideo::frame_yuv(int index, Carry* carry) const {
  YuvFrame out;
  out.y = Frame(config_.width, config_.height);
  out.cb = Plane(config_.width / 2, config_.height / 2);
  out.cr = Plane(config_.width / 2, config_.height / 2);
  render(index, out.y, &out.cb, &out.cr, carry);
  return out;
}

// The per-pixel formula, evaluated left to right in doubles, with
// (wx, wy) = (x + ox, y + oy) the pixel's panned world position and
// (dx, dy) its offset from a disc's center at this frame:
//
//   v  = base_level
//   v += amp1 * sin(fx1 * wx * 2 * pi + ph1) * cos(fy1 * wy * 2 * pi)
//   v += amp2 * sin(fx2 * wx * 2 * pi + fy2 * wy * 2 * pi + ph2)
//   for each disc in object order with d2 = dx * dx + dy * dy < r2:
//     falloff = 1 - d2 / r2
//     v += brightness * falloff *
//          (1 + 0.3 * sin(0.5 * dx + phase) * cos(0.5 * dy))
//   luma = clamp(v + kNoiseAmplitude * noise(x, y, index))
//
// Chroma sample (cx, cy) sits at luma position (2cx, 2cy):
//   cb = cb_base + chroma_amp * sin(chroma_freq * wx * 2 * pi + chroma_phase)
//   cr = cr_base + chroma_amp * cos(chroma_freq * wy * 2 * pi + chroma_phase)
// plus tint_cb * falloff and tint_cr * falloff for each covering disc.
//
// Every factor that depends on one coordinate only is hoisted to a
// per-column table or a per-row scalar without reordering any
// operation, so the doubles, and hence the samples, are bit-identical
// to evaluating the formula pixel by pixel.
//
// The background (the first three lines) depends only on (wx, wy),
// which are integers because pans are.  A carry holding an earlier
// frame of the same scene therefore already has this frame's
// background at (x, y) in its pixel (x + sx, y + sy), with (sx, sy) the
// pan over the frames between them; only pixels whose source lies
// outside the frame are evaluated.  Rows are visited in the order that
// reads every source row before it is overwritten.
void SyntheticVideo::render(int index, Frame& luma, Plane* cb, Plane* cr,
                            Carry* carry) const {
  const int s = scene_of(index);
  const Scene& scene = scenes_[static_cast<std::size_t>(s)];
  const int local_t = index - starts_[static_cast<std::size_t>(s)];
  const int width = config_.width;
  const int height = config_.height;
  const double ox = scene.pan_vx * local_t;
  const double oy = scene.pan_vy * local_t;

  // Rows whose source row lies in the frame keep columns [keep0, keep1)
  // and evaluate the exposed ones, [fresh0, fresh1); other rows
  // evaluate every column.
  bool shifted = false;
  std::int64_t sx = 0, sy = 0;
  if (carry != nullptr) {
    Carry& c = *carry;
    const Carry::Key key{config_.seed, width, height, config_.num_frames,
                         config_.num_scenes, s};
    if (!c.empty() && c.key_ == key) {
      const std::int64_t dt = index - c.index_;
      sx = static_cast<std::int64_t>(scene.pan_vx) * dt;
      sy = static_cast<std::int64_t>(scene.pan_vy) * dt;
      shifted = std::abs(sx) < width && std::abs(sy) < height;
    }
    if (!shifted) {
      sx = sy = 0;
      c.key_ = key;
      c.background_.resize(static_cast<std::size_t>(width) *
                           static_cast<std::size_t>(height));
    }
    c.index_ = index;
  }
  const int keep0 = static_cast<int>(std::max<std::int64_t>(0, -sx));
  const int keep1 = static_cast<int>(std::min<std::int64_t>(width, width - sx));
  const int fresh0 = sx >= 0 ? keep1 : 0;
  const int fresh1 = sx >= 0 ? width : keep0;

  // Per column: sinusoid 1's amp1 * sin(.) factor and sinusoid 2's x
  // term, over the columns some row evaluates.
  const bool every_column = !shifted || sy != 0;
  const int col0 = every_column ? 0 : fresh0;
  const int col1 = every_column ? width : fresh1;
  std::vector<double> wave1(static_cast<std::size_t>(width));
  std::vector<double> arg2_x(static_cast<std::size_t>(width));
  for (int x = col0; x < col1; ++x) {
    const double wx = x + ox;
    wave1[static_cast<std::size_t>(x)] =
        scene.amp1 * std::sin(scene.fx1 * wx * 2.0 * kPi + scene.ph1);
    arg2_x[static_cast<std::size_t>(x)] = scene.fx2 * wx * 2.0 * kPi;
  }
  // Per even column, when chroma is rendered: the cb field.
  std::vector<double> cb_field(static_cast<std::size_t>(width / 2));
  if (cb != nullptr) {
    for (int x = 0; x < width; x += 2) {
      const double wx = x + ox;
      cb_field[static_cast<std::size_t>(x / 2)] =
          scene.cb_base +
          scene.chroma_amp *
              std::sin(scene.chroma_freq * wx * 2.0 * kPi + scene.chroma_phase);
    }
  }

  // Per disc: this frame's center and the column span [x0, x1) outside
  // which dx^2 >= r^2 (so no pixel of the column is covered), with dx^2
  // and the texture's 0.3 * sin(.) factor tabulated over the span.
  struct Disc {
    const MovingObject* obj;
    double cy, r2;
    int x0, x1;
    std::size_t at;  ///< offset of column x0 in dx2 / wave_x
  };
  std::vector<Disc> discs;
  std::vector<double> dx2, wave_x;
  for (const auto& obj : scene.objects) {
    const double cx = obj.cx + obj.vx * local_t;
    Disc d{&obj, obj.cy + obj.vy * local_t, obj.radius * obj.radius, width, 0,
           dx2.size()};
    for (int x = 0; x < width; ++x) {
      const double dx = x - cx;
      if (dx * dx < d.r2) {
        d.x0 = std::min(d.x0, x);
        d.x1 = x + 1;
      }
    }
    if (d.x0 >= d.x1) continue;
    for (int x = d.x0; x < d.x1; ++x) {
      const double dx = x - cx;
      dx2.push_back(dx * dx);
      wave_x.push_back(0.3 * std::sin(0.5 * dx + obj.phase));
    }
    discs.push_back(d);
  }

  std::vector<double> v(static_cast<std::size_t>(width));
  std::vector<double> cb_row(cb_field.size()), cr_row(cb_field.size());
  for (int n = 0; n < height; ++n) {
    const int y = sy < 0 ? height - 1 - n : n;
    const double wy = y + oy;
    double* bg = carry != nullptr
                     ? carry->background_.data() +
                           static_cast<std::size_t>(y) *
                               static_cast<std::size_t>(width)
                     : v.data();
    int x0 = 0, x1 = width;  // the columns evaluated in this row
    if (shifted && y + sy >= 0 && y + sy < height) {
      const double* src = carry->background_.data() +
                          static_cast<std::size_t>(y + sy) *
                              static_cast<std::size_t>(width) +
                          static_cast<std::size_t>(keep0 + sx);
      if (src != bg + keep0) {
        std::memmove(bg + keep0, src,
                     static_cast<std::size_t>(keep1 - keep0) * sizeof(double));
      }
      x0 = fresh0;
      x1 = fresh1;
    }
    if (x0 < x1) {
      const double wave1_y = std::cos(scene.fy1 * wy * 2.0 * kPi);
      const double arg2_y = scene.fy2 * wy * 2.0 * kPi;
      for (int x = x0; x < x1; ++x) {
        const std::size_t i = static_cast<std::size_t>(x);
        bg[i] = scene.base_level;
        bg[i] += wave1[i] * wave1_y;
        bg[i] += scene.amp2 * std::sin(arg2_x[i] + arg2_y + scene.ph2);
      }
    }
    if (bg != v.data()) std::copy(bg, bg + width, v.begin());
    const bool chroma = cb != nullptr && y % 2 == 0;
    if (chroma) {
      const double cr_field =
          scene.cr_base +
          scene.chroma_amp *
              std::cos(scene.chroma_freq * wy * 2.0 * kPi + scene.chroma_phase);
      cb_row = cb_field;
      std::fill(cr_row.begin(), cr_row.end(), cr_field);
    }
    // Moving objects: smooth discs with soft edges and a little internal
    // texture, tinting the chroma they cover.
    for (const Disc& d : discs) {
      const double dy = y - d.cy;
      const double dy2 = dy * dy;
      if (dy2 >= d.r2) continue;  // d2 >= dy2: the row misses the disc
      const double wave_y = std::cos(0.5 * dy);
      const MovingObject& obj = *d.obj;
      for (int x = d.x0; x < d.x1; ++x) {
        const std::size_t k = d.at + static_cast<std::size_t>(x - d.x0);
        const double d2 = dx2[k] + dy2;
        if (d2 < d.r2) {
          const double falloff = 1.0 - d2 / d.r2;
          const double texture = wave_x[k] * wave_y;
          v[static_cast<std::size_t>(x)] +=
              obj.brightness * falloff * (1.0 + texture);
          if (chroma && x % 2 == 0) {
            cb_row[static_cast<std::size_t>(x / 2)] += obj.tint_cb * falloff;
            cr_row[static_cast<std::size_t>(x / 2)] += obj.tint_cr * falloff;
          }
        }
      }
    }
    const std::uint64_t noise_key = noise_row(y, index, config_.seed);
    Sample* out = luma.row(y);
    for (int x = 0; x < width; ++x) {
      out[x] = clamp_sample(v[static_cast<std::size_t>(x)] +
                            kNoiseAmplitude * noise_at(noise_key, x));
    }
    if (chroma) {
      Sample* out_cb = cb->row(y / 2);
      Sample* out_cr = cr->row(y / 2);
      for (std::size_t cx = 0; cx < cb_row.size(); ++cx) {
        out_cb[cx] = clamp_sample(cb_row[cx]);
        out_cr[cx] = clamp_sample(cr_row[cx]);
      }
    }
  }

  const int last = s + 1 < config_.num_scenes
                       ? starts_[static_cast<std::size_t>(s) + 1] - 1
                       : config_.num_frames - 1;
  if (carry != nullptr && index == last) {
    std::vector<double>().swap(carry->background_);
  }
}

}  // namespace qosctrl::media
