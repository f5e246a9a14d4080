#!/usr/bin/env bash
# Docs-rot check: every repo path referenced in backticks from docs/*.md
# must exist, every `acx_*` tool named there must have a source file,
# and the run-report keys documented in docs/PIPELINE.md must still be
# emitted by the report writer. Run from the repo root (CI and ctest
# both do). Exits nonzero on the first class of rot found.
set -u

fail=0

# 1. Backtick-quoted repo paths must exist.
for doc in docs/*.md; do
  refs=$(grep -o '`[^`]*`' "$doc" | tr -d '`' | sort -u)
  while IFS= read -r ref; do
    [ -z "$ref" ] && continue
    # Spans with spaces/wildcards are prose or globs, not paths.
    case "$ref" in *' '*|*'*'*|*'<'*) continue ;; esac
    case "$ref" in
      src/*|docs/*|tests/*|bench/*|tools/*|scripts/*|examples/*|.github/*) ;;
      README.md|ROADMAP.md|DESIGN.md|CHANGES.md|PAPER.md) ;;
      *) continue ;;
    esac
    if [ ! -e "$ref" ]; then
      echo "docs-rot: $doc references missing path: $ref" >&2
      fail=1
    fi
  done <<<"$refs"
done

# 2. Tools named in the docs must have sources.
for doc in docs/*.md; do
  while IFS= read -r tool; do
    [ -z "$tool" ] && continue
    if [ ! -f "tools/$tool.cpp" ]; then
      echo "docs-rot: $doc names tool '$tool' but tools/$tool.cpp is gone" >&2
      fail=1
    fi
  done < <(grep -oE '\bacx_[a-z_]+\b' "$doc" | sort -u)
done

# 3. The report schema keys documented in docs/PIPELINE.md must still
#    exist in the writer (catches a schema rename that forgets the doc).
for key in version total_seconds stage_totals stage_shares stage_profile \
           counts records seconds outputs driver threads \
           speedup_vs_sequential cache_hits cache_misses setup_seconds \
           kernel_seconds status degraded shed points deadline breaker \
           stations station components checks rotd_status rotd_reason \
           rotd_output; do
  if ! grep -q "\"$key\"" src/pipeline/report.cpp; then
    echo "docs-rot: docs/PIPELINE.md documents run-report key '$key'" \
         "but src/pipeline/report.cpp no longer emits it" >&2
    fail=1
  fi
done

# 3c. The batch-report keys documented in docs/BATCH.md must still be
#     emitted by the batch writer.
for key in version input_root work_root event_workers priority \
           records_per_second points_per_second breaker counts events \
           resumed; do
  if ! grep -q "\"$key\"" src/pipeline/batch.cpp; then
    echo "docs-rot: docs/BATCH.md documents batch-report key '$key'" \
         "but src/pipeline/batch.cpp no longer emits it" >&2
    fail=1
  fi
done

# 3d. The serve-stats keys documented in docs/SERVE.md must still be
#     emitted by the serve writer (the serve_stats.json schema) — the
#     breaker block's by the one breaker writer every report shares.
for key in version uptime_seconds driver threads event_workers capacity \
           depth admitted served ok degraded quarantined malformed \
           duplicates in_flight events_per_second records_per_second \
           points_per_second cumulative_hits cumulative_misses \
           first_event last_event trajectory hit_rate executed steals \
           stolen_tasks injector_takes overflow parks wakes inline_runs \
           rejected_ops opens half_open_recoveries scan_errors \
           stats_write_failures; do
  case "$key" in
    rejected_ops|opens|half_open_recoveries) writer=src/pipeline/report.cpp ;;
    *) writer=src/pipeline/serve.cpp ;;
  esac
  if ! grep -q "\"$key\"" "$writer"; then
    echo "docs-rot: docs/SERVE.md documents serve-stats key '$key'" \
         "but $writer no longer emits it" >&2
    fail=1
  fi
done

# 3b. The five driver names the docs advertise must stay the spellings
#     the CLI parses (catches a rename that forgets README/PIPELINE.md).
for d in seq seq-opt partial full pool; do
  if ! grep -q "\"$d\"" src/pipeline/config.hpp; then
    echo "docs-rot: documented driver name '$d' is no longer parsed by" \
         "src/pipeline/config.hpp" >&2
    fail=1
  fi
done

# 4. The format magics documented in docs/FORMATS.md must match the
#    headers that define them.
for pair in "ACX-V1:src/formats/v1.hpp" "ACX-V2:src/formats/v2.hpp" \
            "ACX-F:src/formats/spectra.hpp" "ACX-R:src/formats/spectra.hpp" \
            "ACX-RD:src/formats/spectra.hpp"; do
  magic=${pair%%:*}; header=${pair#*:}
  if ! grep -q "$magic" docs/FORMATS.md; then
    echo "docs-rot: docs/FORMATS.md no longer documents magic '$magic'" >&2
    fail=1
  fi
  if ! grep -q "\"$magic\"" "$header"; then
    echo "docs-rot: docs/FORMATS.md documents magic '$magic' but $header" \
         "does not define it" >&2
    fail=1
  fi
done

# 5. Every spectrum error slug named in docs/SPECTRUM.md must exist in
#    the taxonomy (and so stay a legal spectrum.<slug> reason).
while IFS= read -r slug; do
  [ -z "$slug" ] && continue
  if ! grep -q "\"${slug#spectrum.}\"" src/spectrum/error.hpp; then
    echo "docs-rot: docs/SPECTRUM.md names reason '$slug' but" \
         "src/spectrum/error.hpp has no such slug" >&2
    fail=1
  fi
done < <(grep -oE '\bspectrum\.[a-z_]+\b' docs/SPECTRUM.md | sort -u)

# 6. Every storage.*/batch.*/station.* reason slug named in the docs
#    must be in the registry, so acx_validate keeps accepting what the
#    docs promise (and vice versa: a slug dropped from the registry
#    rots here instead of silently failing validation).
while IFS= read -r slug; do
  [ -z "$slug" ] && continue
  # File references like batch.cpp / batch.hpp are paths, not slugs.
  case "$slug" in *.cpp|*.hpp|*.json|*.md|*.py|*.sh) continue ;; esac
  # station.* slugs are registered bare (the registry prepends the
  # family); storage.*/batch.* are registered with the full dotted form.
  case "$slug" in
    station.*) probe="\"${slug#station.}\"" ;;
    *) probe="\"$slug\"" ;;
  esac
  if ! grep -q "$probe" src/pipeline/reasons.hpp; then
    echo "docs-rot: docs name reason '$slug' but" \
         "src/pipeline/reasons.hpp does not register it" >&2
    fail=1
  fi
done < <(grep -ohE '\b(storage|batch|station)\.[a-z_]+\b' docs/*.md | sort -u)

# 7. The sched-report keys documented in docs/SCHED.md must still be
#    emitted by the analysis writer (the acx_sched --json schema).
for key in version tool procs seed response_split anchor source records \
           points excluded flagged measured drivers work span makespan \
           brent_lower brent_upper speedup stages stage redundant tasks \
           seq_seconds share station_scoped station_share modeled_seconds \
           sweep floored_costs; do
  if ! grep -q "\"$key\"" src/sched/analysis.cpp; then
    echo "docs-rot: docs/SCHED.md documents sched-report key '$key'" \
         "but src/sched/analysis.cpp no longer emits it" >&2
    fail=1
  fi
done

# 8. Every CSV column scripts/paper_figures.py writes must be named in
#    docs/SCHED.md, and vice versa for the three CSV file names — a
#    renamed column or artifact rots here, not in a downstream reader.
for col in $(python3 - <<'EOF'
import re
src = open("scripts/paper_figures.py", encoding="utf-8").read()
cols = set()
for block in re.findall(r"COLUMNS = \[(.*?)\]", src, re.S):
    cols.update(re.findall(r'"([a-z0-9_]+)"', block))
print("\n".join(sorted(cols)))
EOF
); do
  if ! grep -q "\`$col\`" docs/SCHED.md; then
    echo "docs-rot: paper_figures.py writes CSV column '$col' but" \
         "docs/SCHED.md does not document it" >&2
    fail=1
  fi
done
for csv in table1.csv fig11.csv fig13.csv; do
  for place in docs/SCHED.md docs/EVALUATION.md scripts/paper_figures.py; do
    if ! grep -q "$csv" "$place"; then
      echo "docs-rot: $place no longer mentions artifact '$csv'" >&2
      fail=1
    fi
  done
done

# 9. The sched vocabulary the docs lean on must keep its anchors in the
#    simulator sources (a rename of the core concepts rots the docs).
for pair in "brent_lower:src/sched/analysis.hpp" \
            "critical_paths:src/sched/simulator.hpp" \
            "ok_stage_seconds:src/pipeline/report.hpp" \
            "scratch_setup:src/pipeline/graph.cpp" \
            "list_schedule:src/sched/simulator.hpp" \
            "render_gantt:src/sched/gantt.hpp"; do
  word=${pair%%:*}; where=${pair#*:}
  if ! grep -q "$word" "$where"; then
    echo "docs-rot: sched term '$word' documented in docs/SCHED.md is" \
         "no longer defined in $where" >&2
    fail=1
  fi
done

# 10. The serve vocabulary docs/SERVE.md leans on must keep its anchors
#     in the service sources (spool protocol, pool, queue semantics).
for pair in "kServeShutdownSentinel:src/pipeline/serve.hpp" \
            "kServeStatsFileName:src/pipeline/serve.hpp" \
            "TaskGroup:src/util/work_pool.hpp" \
            "take_from_injector:src/util/work_pool.cpp" \
            "kClosed:src/util/bounded_queue.hpp" \
            "kPool:src/pipeline/config.hpp"; do
  word=${pair%%:*}; where=${pair#*:}
  if ! grep -q "$word" "$where"; then
    echo "docs-rot: serve term '$word' documented in docs/SERVE.md is" \
         "no longer defined in $where" >&2
    fail=1
  fi
done

# 11. The SIMD-toggle / convolution / SOS vocabulary of docs/PERF.md
#     and docs/SIGNAL.md must keep its anchors in the sources (a rename
#     of the toggle API or a kernel entry point rots the docs here).
for pair in "ACX_SIMD:CMakeLists.txt" \
            "active_kernels:src/util/simd.hpp" \
            "host_tier:src/util/simd.hpp" \
            "set_tier_cap:src/util/simd.hpp" \
            "ffp-contract=off:src/CMakeLists.txt" \
            "fft_pow2_execute_split:src/signal/fft_plan.hpp" \
            "kOverlapSaveMinTaps:src/signal/fir.hpp" \
            "overlap_save_selected:src/signal/fir.hpp" \
            "kOverlapSave:src/signal/fir.hpp" \
            "design_butterworth_bandpass:src/signal/sos.hpp" \
            "filtfilt_sos:src/signal/sos.hpp" \
            "sdof_peak_response_batch:src/spectrum/response_plan.hpp"; do
  word=${pair%%:*}; where=${pair#*:}
  if ! grep -q "$word" "$where"; then
    echo "docs-rot: SIMD/SOS term '$word' documented in docs/PERF.md or" \
         "docs/SIGNAL.md is no longer defined in $where" >&2
    fail=1
  fi
done

# 12. Every gated bench name the perf docs cite must still be in the
#     baseline (a renamed bench would otherwise silently leave the
#     regression gate while the docs keep promising it's watched).
for bench in BM_FftPow2 signal.fft_scalar_ref BM_FirBandPass \
             BM_FirFiltfiltDirect BM_FirOverlapSave BM_SosFiltFilt \
             spectrum.response spectrum.sdof_batch32 spectrum.rotd_sweep; do
  if ! grep -q "$bench" bench/baseline.json; then
    echo "docs-rot: bench '$bench' is cited by the docs but absent from" \
         "bench/baseline.json (regression gate)" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs-rot check FAILED" >&2
  exit 1
fi
echo "docs-rot check OK"
