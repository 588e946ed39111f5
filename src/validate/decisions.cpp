#include "validate/decisions.hpp"

#include <sstream>

#include "sim/replay.hpp"

namespace pjsb::validate {

std::vector<sim::Decision> replay_decisions(
    const swf::Trace& trace, const std::string& scheduler_spec,
    std::optional<std::int64_t> nodes) {
  DecisionRecorder recorder;
  sim::SimulationSpec spec;
  spec.scheduler = scheduler_spec;
  spec.nodes = nodes;
  sim::replay(trace, spec, sim::ReplayHooks{}.observe(recorder));
  return recorder.decisions();
}

namespace {

constexpr const char* kCsvHeader = "time,job,procs,virtual\n";

void append_csv_row(std::string& csv, const sim::Decision& d) {
  csv += std::to_string(d.time) + ',' + std::to_string(d.job_id) + ',' +
         std::to_string(d.procs) + ',' + (d.virtual_start ? '1' : '0');
  csv += '\n';
}

}  // namespace

void DecisionCsvWriter::open() {
  if (opened_ || path_.empty()) return;
  opened_ = true;
  out_.open(path_, std::ios::binary | std::ios::trunc);
  out_ << kCsvHeader;
}

void DecisionCsvWriter::on_decision(const sim::Decision& decision) {
  ++count_;
  open();
  if (!out_.is_open()) return;
  std::string row;
  append_csv_row(row, decision);
  out_ << row;
}

bool DecisionCsvWriter::flush() {
  open();
  out_.flush();
  return path_.empty() || bool(out_);
}

std::string decisions_to_csv(const std::vector<sim::Decision>& decisions) {
  std::string csv = kCsvHeader;
  for (const auto& d : decisions) append_csv_row(csv, d);
  return csv;
}

std::string diff_decision_csv(const std::string& expected,
                              const std::string& actual) {
  if (expected == actual) return "";
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line, got_line;
  for (std::size_t line = 1;; ++line) {
    const bool have_want = bool(std::getline(want, want_line));
    const bool have_got = bool(std::getline(got, got_line));
    if (!have_want && !have_got) break;  // differ only in trailing bytes
    if (have_want && have_got && want_line == got_line) continue;
    std::string diff = "decision traces diverge at line " +
                       std::to_string(line) + ":\n  expected: " +
                       (have_want ? want_line : "<end of trace>") +
                       "\n  actual:   " +
                       (have_got ? got_line : "<end of trace>");
    return diff;
  }
  return "decision traces differ in whitespace/trailing bytes only";
}

}  // namespace pjsb::validate
