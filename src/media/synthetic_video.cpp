#include "media/synthetic_video.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace qosctrl::media {
namespace {

constexpr double kPi = 3.14159265358979323846;

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

Frame SyntheticVideo::frame(int index) const {
  Frame out(config_.width, config_.height);
  render(index, out, nullptr, nullptr);
  return out;
}

YuvFrame SyntheticVideo::frame_yuv(int index) const {
  YuvFrame out;
  out.y = Frame(config_.width, config_.height);
  out.cb = Plane(config_.width / 2, config_.height / 2);
  out.cr = Plane(config_.width / 2, config_.height / 2);
  render(index, out.y, &out.cb, &out.cr);
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
//   luma = clamp(v + noise_amplitude * noise(x, y, index))
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
void SyntheticVideo::render(int index, Frame& luma, Plane* cb,
                            Plane* cr) const {
  const int s = scene_of(index);
  const Scene& scene = scenes_[static_cast<std::size_t>(s)];
  const int local_t = index - starts_[static_cast<std::size_t>(s)];
  const int width = config_.width;
  const double ox = scene.pan_vx * local_t;
  const double oy = scene.pan_vy * local_t;

  // Per column: sinusoid 1's amp1 * sin(.) factor, sinusoid 2's x term
  // and, when chroma is rendered, the cb field at even columns.
  std::vector<double> wave1(static_cast<std::size_t>(width));
  std::vector<double> arg2_x(static_cast<std::size_t>(width));
  std::vector<double> cb_field(static_cast<std::size_t>(width / 2));
  for (int x = 0; x < width; ++x) {
    const double wx = x + ox;
    wave1[static_cast<std::size_t>(x)] =
        scene.amp1 * std::sin(scene.fx1 * wx * 2.0 * kPi + scene.ph1);
    arg2_x[static_cast<std::size_t>(x)] = scene.fx2 * wx * 2.0 * kPi;
    if (cb != nullptr && x % 2 == 0) {
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
  for (int y = 0; y < config_.height; ++y) {
    const double wy = y + oy;
    const double wave1_y = std::cos(scene.fy1 * wy * 2.0 * kPi);
    const double arg2_y = scene.fy2 * wy * 2.0 * kPi;
    for (int x = 0; x < width; ++x) {
      const std::size_t i = static_cast<std::size_t>(x);
      v[i] = scene.base_level;
      v[i] += wave1[i] * wave1_y;
      v[i] += scene.amp2 * std::sin(arg2_x[i] + arg2_y + scene.ph2);
    }
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
                            config_.noise_amplitude * noise_at(noise_key, x));
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
}

}  // namespace qosctrl::media
