// Small utilities for recording and rendering experiment series.
//
// Every benchmark binary reproduces one paper table or figure; the data it
// produces is a set of named series over a shared x axis (frame index,
// parameter value, ...).  SeriesTable collects them, writes CSV, computes
// summary statistics, and renders a coarse ASCII chart so the figure shape
// is visible directly in the bench output.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace qosctrl::util {

/// Summary statistics of a numeric series.
struct SeriesStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

/// Computes summary statistics; empty input yields all-zero stats.
SeriesStats compute_stats(const std::vector<double>& values);

/// A set of named columns over a shared integer x axis.
class SeriesTable {
 public:
  explicit SeriesTable(std::string x_name) : x_name_(std::move(x_name)) {}

  /// Adds a column; returns its index.  Values may be appended later.
  std::size_t add_series(std::string name);

  /// Appends one row; `values[i]` goes to column i.  Missing trailing
  /// columns are padded with NaN.
  void add_row(std::int64_t x, const std::vector<double>& values);

  /// Column access.
  std::vector<double> column(std::size_t i) const;
  const std::vector<std::int64_t>& xs() const { return xs_; }
  std::size_t num_rows() const { return xs_.size(); }

  /// Writes the table as CSV (header row, then one line per x).
  void write_csv(std::ostream& os) const;

  /// Renders an ASCII chart of all series (one glyph per series) into
  /// `os`.  `width`/`height` are the plot area in characters.
  void render_ascii(std::ostream& os, int width = 100, int height = 20,
                    std::optional<double> y_min = std::nullopt,
                    std::optional<double> y_max = std::nullopt) const;

  /// Prints per-series summary statistics.
  void print_stats(std::ostream& os) const;

 private:
  std::string x_name_;
  std::vector<std::string> names_;
  std::vector<std::int64_t> xs_;
  std::vector<std::vector<double>> rows_;  // rows_[r][c]
};

}  // namespace qosctrl::util
