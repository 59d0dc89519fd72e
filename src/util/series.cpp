#include "util/series.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>

#include "util/check.h"

namespace qosctrl::util {

SeriesStats compute_stats(const std::vector<double>& values) {
  SeriesStats s;
  for (double v : values) {
    if (std::isnan(v)) continue;
    if (s.count == 0) {
      s.min = s.max = v;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.mean += v;
    ++s.count;
  }
  if (s.count == 0) return s;
  s.mean /= static_cast<double>(s.count);
  double acc = 0.0;
  for (double v : values) {
    if (std::isnan(v)) continue;
    acc += (v - s.mean) * (v - s.mean);
  }
  s.stddev = std::sqrt(acc / static_cast<double>(s.count));
  return s;
}

std::size_t SeriesTable::add_series(std::string name) {
  names_.push_back(std::move(name));
  return names_.size() - 1;
}

void SeriesTable::add_row(std::int64_t x, const std::vector<double>& values) {
  QC_EXPECT(values.size() <= names_.size(),
            "row has more values than declared series");
  xs_.push_back(x);
  std::vector<double> row = values;
  row.resize(names_.size(), std::numeric_limits<double>::quiet_NaN());
  rows_.push_back(std::move(row));
}

std::vector<double> SeriesTable::column(std::size_t i) const {
  QC_EXPECT(i < names_.size(), "column index out of range");
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[i]);
  return out;
}

void SeriesTable::write_csv(std::ostream& os) const {
  os << x_name_;
  for (const auto& n : names_) os << ',' << n;
  os << '\n';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << xs_[r];
    for (double v : rows_[r]) {
      os << ',';
      if (std::isnan(v)) {
        // empty cell for missing value
      } else {
        os << std::setprecision(10) << v;
      }
    }
    os << '\n';
  }
}

void SeriesTable::render_ascii(std::ostream& os, int width, int height,
                               std::optional<double> y_min,
                               std::optional<double> y_max) const {
  if (rows_.empty() || names_.empty() || width < 8 || height < 3) return;
  static const char kGlyphs[] = "*o+x#@%&";
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& row : rows_) {
    for (double v : row) {
      if (std::isnan(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (y_min) lo = *y_min;
  if (y_max) hi = *y_max;
  if (!(hi > lo)) hi = lo + 1.0;

  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width), ' '));
  const auto n = rows_.size();
  for (std::size_t c = 0; c < names_.size(); ++c) {
    const char glyph = kGlyphs[c % (sizeof(kGlyphs) - 1)];
    for (std::size_t r = 0; r < n; ++r) {
      const double v = rows_[r][c];
      if (std::isnan(v)) continue;
      const double vc = std::clamp(v, lo, hi);
      int px = static_cast<int>(static_cast<double>(r) * (width - 1) /
                                static_cast<double>(std::max<std::size_t>(n - 1, 1)));
      int py = height - 1 -
               static_cast<int>((vc - lo) / (hi - lo) * (height - 1) + 0.5);
      py = std::clamp(py, 0, height - 1);
      canvas[static_cast<std::size_t>(py)][static_cast<std::size_t>(px)] = glyph;
    }
  }
  os << std::setprecision(6);
  os << "  y: [" << lo << ", " << hi << "]   x: " << x_name_ << " in ["
     << xs_.front() << ", " << xs_.back() << "]\n";
  for (std::size_t c = 0; c < names_.size(); ++c) {
    os << "  '" << kGlyphs[c % (sizeof(kGlyphs) - 1)] << "' = " << names_[c]
       << '\n';
  }
  for (const auto& line : canvas) os << "  |" << line << "|\n";
}

void SeriesTable::print_stats(std::ostream& os) const {
  os << std::setprecision(6);
  for (std::size_t c = 0; c < names_.size(); ++c) {
    const SeriesStats s = compute_stats(column(c));
    os << "  " << names_[c] << ": mean=" << s.mean << " min=" << s.min
       << " max=" << s.max << " stddev=" << s.stddev << " n=" << s.count
       << '\n';
  }
}

}  // namespace qosctrl::util
