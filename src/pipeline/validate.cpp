#include "pipeline/validate.hpp"

#include <cmath>
#include <set>

#include "formats/spectra.hpp"
#include "formats/v2.hpp"
#include "pipeline/reasons.hpp"
#include "pipeline/report.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

namespace {

void add_issue(ValidationSummary& summary, std::string kind,
               std::string detail) {
  summary.issues.push_back({std::move(kind), std::move(detail)});
}

}  // namespace

ValidationSummary validate_workdir(FileSystem& fs,
                                   const stdfs::path& work_dir) {
  ValidationSummary summary;

  if (!fs.exists(work_dir)) {
    add_issue(summary, "missing_workdir", work_dir.string());
    return summary;
  }

  // Atomic-write audit over the whole tree, plus inventory of out/,
  // quarantine/ and scratch/ contents by base name.
  std::set<std::string> out_files, quarantine_files;
  auto tree = fs.list_tree(work_dir);
  if (!tree.ok()) {
    add_issue(summary, "unreadable_workdir", tree.error().to_string());
    return summary;
  }
  const stdfs::path out_dir = work_dir / "out";
  const stdfs::path quarantine_dir = work_dir / "quarantine";
  const stdfs::path scratch_dir = work_dir / "scratch";
  for (const stdfs::path& p : tree.value()) {
    if (is_atomic_tmp_name(p)) {
      add_issue(summary, "partial_write",
                "leftover atomic-write temporary: " + p.string());
      continue;
    }
    if (p.parent_path() == out_dir) out_files.insert(p.filename().string());
    if (p.parent_path() == quarantine_dir) {
      quarantine_files.insert(p.filename().string());
    }
    if (p.string().rfind(scratch_dir.string() + "/", 0) == 0) {
      add_issue(summary, "scratch_leftover", p.string());
    }
  }

  auto report_text = fs.read_file(work_dir / kRunReportFileName);
  if (!report_text.ok()) {
    add_issue(summary, "missing_report", report_text.error().to_string());
    return summary;
  }
  auto parsed = RunReport::from_json_text(report_text.value());
  if (!parsed.ok()) {
    add_issue(summary, "bad_report", parsed.error());
    return summary;
  }
  const RunReport report = std::move(parsed).take();
  summary.status = report.status();

  std::set<std::string> claimed_out, claimed_quarantine;
  for (const RecordOutcome& r : report.records) {
    if (r.status == RecordOutcome::Status::kOk) {
      ++summary.records_ok;
      if (r.output.empty()) {
        add_issue(summary, "missing_output",
                  "record " + r.record + " is ok but names no output");
        continue;
      }
      // Audit every claimed output, dispatching the strict reader on
      // the extension. Reports from before the spectral stages carried
      // only `output`; fall back to that single path.
      std::vector<std::string> claimed = r.outputs;
      if (claimed.empty()) claimed.push_back(r.output);
      bool has_f = false, has_r = false;
      for (const std::string& claim : claimed) {
        const stdfs::path out_path(claim);
        const std::string ext = out_path.extension().string();
        claimed_out.insert(out_path.filename().string());
        auto content = fs.read_file(out_path);
        if (!content.ok()) {
          add_issue(summary, "missing_output",
                    "record " + r.record + ": " + content.error().to_string());
          continue;
        }
        if (ext == formats::kFExtension) {
          has_f = true;
          auto f = formats::read_f(content.value());
          if (!f.ok()) {
            add_issue(summary, "corrupt_output",
                      "record " + r.record + ": " + f.error().to_string());
          } else if (f.value().header.id() != r.record) {
            add_issue(summary, "mismatched_output",
                      "record " + r.record + ": F header says '" +
                          f.value().header.id() + "'");
          }
          continue;
        }
        if (ext == formats::kRExtension) {
          has_r = true;
          auto rr = formats::read_r(content.value());
          if (!rr.ok()) {
            add_issue(summary, "corrupt_output",
                      "record " + r.record + ": " + rr.error().to_string());
          } else if (rr.value().header.id() != r.record) {
            add_issue(summary, "mismatched_output",
                      "record " + r.record + ": R header says '" +
                          rr.value().header.id() + "'");
          }
          continue;
        }
        if (ext != formats::kV2Extension) {
          add_issue(summary, "unexpected_file",
                    "record " + r.record + " claims output with unknown "
                    "extension: " + claim);
          continue;
        }
        auto v2 = formats::read_v2(content.value());
        if (!v2.ok()) {
          add_issue(summary, "corrupt_output",
                    "record " + r.record + ": " + v2.error().to_string());
          continue;
        }
        if (v2.value().record.header.id() != r.record) {
          add_issue(summary, "mismatched_output",
                    "record " + r.record + ": output header says '" +
                        v2.value().record.header.id() + "'");
        }
        // A claimed V2 must carry usable science: finite samples and a
        // complete, finite peak block. The strict reader already rejects
        // non-finite data cells; this re-check keeps the audit honest
        // even if the reader's guarantees ever loosen.
        const formats::V2Record& out_rec = v2.value();
        bool all_finite = !out_rec.record.samples.empty();
        for (const double s : out_rec.record.samples) {
          if (!std::isfinite(s)) {
            all_finite = false;
            break;
          }
        }
        if (!all_finite) {
          add_issue(summary, "nonfinite_output",
                    "record " + r.record +
                        ": output has empty or non-finite samples");
        }
        if (!out_rec.peaks.present) {
          add_issue(summary, "missing_peaks",
                    "record " + r.record +
                        ": output lacks PGA/PGV/PGD headers");
        } else {
          const double t_max =
              static_cast<double>(out_rec.record.samples.size()) *
              out_rec.record.header.dt;
          auto check_peak = [&](const char* label,
                                const formats::PeakEntry& entry) {
            if (!std::isfinite(entry.value) || !std::isfinite(entry.time) ||
                entry.time < 0 || entry.time > t_max) {
              add_issue(summary, "bad_peaks",
                        "record " + r.record + ": " + std::string(label) +
                            " is non-finite or out of the record's time range");
            }
          };
          check_peak("PGA", out_rec.peaks.pga);
          check_peak("PGV", out_rec.peaks.pgv);
          check_peak("PGD", out_rec.peaks.pgd);
        }
      }
      // v6 degradation audit: a degraded record must say which stages it
      // shed, and every shed reason must be registered — degradation is
      // a typed contract, not a free-form excuse.
      std::set<std::string> shed_stages;
      if (r.degraded && r.shed.empty()) {
        add_issue(summary, "missing_shed",
                  "record " + r.record + " is degraded but lists no shed "
                  "stages");
      }
      for (const ShedStage& s : r.shed) {
        shed_stages.insert(s.stage);
        if (!is_registered_reason(s.reason)) {
          add_issue(summary, "unregistered_reason",
                    "record " + r.record + " shed stage '" + s.stage +
                        "' with reason '" + s.reason +
                        "' not in the registry");
        }
      }
      // A surviving record must have produced its spectra when the
      // report is new enough to list them — unless it (legitimately)
      // shed the producing stage and published as degraded.
      const bool f_excused = shed_stages.count("fourier") > 0;
      const bool r_excused = shed_stages.count("response") > 0;
      if (!r.outputs.empty() &&
          ((!has_f && !f_excused) || (!has_r && !r_excused))) {
        add_issue(summary, "missing_spectra",
                  "record " + r.record + " is ok but claims no " +
                      (has_f ? "R" : has_r ? "F" : "F or R") + " output");
      }
    } else {
      ++summary.records_quarantined;
      if (r.reason.empty()) {
        add_issue(summary, "missing_reason",
                  "record " + r.record + " quarantined without a reason");
      } else if (!is_registered_reason(r.reason)) {
        add_issue(summary, "unregistered_reason",
                  "record " + r.record + " quarantined with reason '" +
                      r.reason + "' not in the registry");
      }
      if (r.quarantine.empty()) {
        add_issue(summary, "missing_quarantine",
                  "record " + r.record + " quarantined but no file written");
        continue;
      }
      const stdfs::path q_path(r.quarantine);
      claimed_quarantine.insert(q_path.filename().string());
      if (!fs.exists(q_path)) {
        add_issue(summary, "missing_quarantine",
                  "record " + r.record + ": " + r.quarantine + " not found");
      }
    }
  }

  // v7 station audit. The strict report parser already cross-checked
  // the rollups (components, ok/quarantined counts) against the record
  // grouping and the reason registry; here we audit the artifacts.
  for (const StationOutcome& st : report.stations) {
    if (st.rotd_status == "ok") {
      if (st.rotd_output.empty()) {
        add_issue(summary, "missing_output",
                  "station " + st.station + " rotd is ok but names no output");
        continue;
      }
      const stdfs::path out_path(st.rotd_output);
      claimed_out.insert(out_path.filename().string());
      auto content = fs.read_file(out_path);
      if (!content.ok()) {
        add_issue(summary, "missing_output",
                  "station " + st.station + ": " + content.error().to_string());
        continue;
      }
      // The strict reader enforces the RotD00 <= RotD50 <= RotD100
      // ordering invariant per cell; the audit adds the identity check.
      auto rd = formats::read_rotd(content.value());
      if (!rd.ok()) {
        add_issue(summary, "corrupt_output",
                  "station " + st.station + ": " + rd.error().to_string());
        continue;
      }
      if (rd.value().station != st.station) {
        add_issue(summary, "mismatched_output",
                  "station " + st.station + ": RD header says '" +
                      rd.value().station + "'");
        continue;
      }
      ++summary.stations_rotd_ok;
    } else if (!is_registered_reason(st.rotd_reason)) {
      add_issue(summary, "unregistered_reason",
                "station " + st.station + " rotd " + st.rotd_status +
                    " with reason '" + st.rotd_reason +
                    "' not in the registry");
    }
  }

  for (const std::string& name : out_files) {
    if (!claimed_out.count(name)) {
      add_issue(summary, "unexpected_file",
                "out/" + name + " not claimed by the run report");
    }
  }
  for (const std::string& name : quarantine_files) {
    if (!claimed_quarantine.count(name)) {
      add_issue(summary, "unexpected_file",
                "quarantine/" + name + " not claimed by the run report");
    }
  }

  return summary;
}

}  // namespace acx::pipeline
