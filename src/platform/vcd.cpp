#include "platform/vcd.h"

#include <fstream>

#include "util/check.h"

namespace qosctrl::platform {
namespace {

/// Emits a value as a VCD binary vector ("b1010 <id>").
void emit_vector(std::ostream& os, std::int64_t value, char id) {
  os << 'b';
  if (value == 0) {
    os << '0';
  } else {
    bool leading = true;
    for (int bit = 31; bit >= 0; --bit) {
      const bool set = ((value >> bit) & 1) != 0;
      if (set) leading = false;
      if (!leading) os << (set ? '1' : '0');
    }
  }
  os << ' ' << id << '\n';
}

}  // namespace

void write_vcd(std::ostream& os, const std::vector<qos::StepTrace>& trace,
               const VcdOptions& options) {
  constexpr char kActionId = '!';
  constexpr char kQualityId = '"';
  constexpr char kBusyId = '#';

  os << "$date qosctrl virtual platform $end\n"
     << "$version qosctrl 1.0 $end\n"
     << "$timescale " << options.timescale << " $end\n"
     << "$scope module " << options.module_name << " $end\n"
     << "$var wire 32 " << kActionId << " action $end\n"
     << "$var wire 8 " << kQualityId << " quality $end\n"
     << "$var wire 1 " << kBusyId << " busy $end\n"
     << "$upscope $end\n"
     << "$enddefinitions $end\n"
     << "$dumpvars\n";
  emit_vector(os, 0, kActionId);
  emit_vector(os, 0, kQualityId);
  os << "0" << kBusyId << "\n$end\n";

  rt::Cycles last_end = 0;
  for (const qos::StepTrace& rec : trace) {
    QC_EXPECT(rec.start >= last_end, "trace must be chronological");
    if (rec.start > last_end) {
      os << '#' << last_end << '\n';
      os << '0' << kBusyId << '\n';
    }
    os << '#' << rec.start << '\n';
    emit_vector(os, rec.action, kActionId);
    emit_vector(os, rec.quality, kQualityId);
    os << '1' << kBusyId << '\n';
    last_end = rec.start + rec.cost;
  }
  os << '#' << last_end << '\n';
  os << '0' << kBusyId << '\n';
}

bool write_vcd_file(const std::string& path,
                    const std::vector<qos::StepTrace>& trace,
                    const VcdOptions& options) {
  std::ofstream f(path);
  if (!f) return false;
  write_vcd(f, trace, options);
  return static_cast<bool>(f);
}

}  // namespace qosctrl::platform
