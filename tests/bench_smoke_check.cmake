# Tier-1 smoke check for the telemetry pipeline: runs bench_smoke at full
# size in a scratch directory and fails if BENCH_smoke.json /
# BENCH_smoke.csv / TRACE_smoke.json are missing or malformed, or if the
# report drifted from the pre-SoA golden. Invoked by ctest as
#   cmake -DSMOKE_BIN=<path-to-bench_smoke> [-DIMA_SANITIZE=<kinds>]
#         [-DPYTHON=<python3> -DDIFF_TOOL=<bench_diff.py> -DGOLDEN_SMOKE=<json>]
#         -P bench_smoke_check.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT SMOKE_BIN)
  message(FATAL_ERROR "SMOKE_BIN not set")
endif()

set(out_dir "${CMAKE_CURRENT_BINARY_DIR}/smoke_out")
file(REMOVE_RECURSE "${out_dir}")
file(MAKE_DIRECTORY "${out_dir}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env IMA_BENCH_OUT=${out_dir} ${SMOKE_BIN}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke exited with ${run_rc}:\n${run_out}\n${run_err}")
endif()

foreach(artifact BENCH_smoke.json BENCH_smoke.csv TRACE_smoke.json CKPT_smoke.ckpt)
  if(NOT EXISTS "${out_dir}/${artifact}")
    message(FATAL_ERROR "bench_smoke did not write ${artifact}")
  endif()
endforeach()

# The report must parse as JSON and carry the expected sections.
file(READ "${out_dir}/BENCH_smoke.json" report_json)
string(JSON report_id ERROR_VARIABLE json_err GET "${report_json}" id)
if(json_err)
  message(FATAL_ERROR "BENCH_smoke.json is not valid JSON: ${json_err}")
endif()
if(NOT report_id STREQUAL "smoke")
  message(FATAL_ERROR "BENCH_smoke.json id is '${report_id}', expected 'smoke'")
endif()
string(JSON cycles ERROR_VARIABLE json_err GET "${report_json}" metrics cycles)
if(json_err OR cycles LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json metrics.cycles missing or zero (${json_err})")
endif()
string(JSON n_tables ERROR_VARIABLE json_err LENGTH "${report_json}" tables)
if(json_err OR n_tables LESS 1)
  message(FATAL_ERROR "BENCH_smoke.json has no tables (${json_err})")
endif()

# Orderly-completion stamp: an artifact from a bench that died mid-run
# carries complete=false; the smoke run finished, so it must say true.
string(JSON complete ERROR_VARIABLE json_err GET "${report_json}" complete)
if(json_err OR NOT complete STREQUAL "ON")
  message(FATAL_ERROR "BENCH_smoke.json complete stamp is '${complete}', expected true (${json_err})")
endif()

# Cross-VERSION determinism: the committed golden was recorded at full size
# before the SoA bank-timing kernel rewrite. The run must still be
# equivalent (host-time keys masked) — the kernel is a pure-performance
# change, and any simulated-cycle drift it introduces fails here. --subset:
# fields added after the recording (the checkpoint phase) may be new; every
# field the golden carries is still compared exactly.
if(PYTHON)
  execute_process(
    COMMAND ${PYTHON} ${DIFF_TOOL} --subset ${GOLDEN_SMOKE} ${out_dir}/BENCH_smoke.json
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "BENCH_smoke.json drifted from the committed pre-SoA golden:\n${diff_out}${diff_err}")
  endif()
  message(STATUS "pre-SoA golden vs this run: ${diff_out}")
endif()

# The sweep-engine smoke must have recorded its wall clock and width (the
# golden_smoke_jobs* variants check its results at other widths).
foreach(metric sweep_jobs sweep_workers sweep_wall_seconds)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" metrics ${metric})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json metrics.${metric} missing (${json_err})")
  endif()
endforeach()
string(JSON sweep_workers ERROR_VARIABLE json_err GET "${report_json}" metrics sweep_workers)
if(sweep_workers LESS 1)
  message(FATAL_ERROR "BENCH_smoke.json sweep_workers is ${sweep_workers}")
endif()

# Sharded-drain phase: guard the metric names and the wall clock (the
# golden_smoke_shards*/epoch997 variants check its results at other shard
# widths and epochs).
foreach(metric shard_channels shard_cycles shard_checksum shard_epoch shard_workers
               shard_wall_seconds)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" metrics ${metric})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json metrics.${metric} missing (${json_err})")
  endif()
endforeach()
string(JSON shard_cycles ERROR_VARIABLE json_err GET "${report_json}" metrics shard_cycles)
if(shard_cycles LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json shard_cycles is ${shard_cycles}")
endif()
string(JSON shard_workers ERROR_VARIABLE json_err GET "${report_json}" metrics shard_workers)
if(shard_workers LESS 1)
  message(FATAL_ERROR "BENCH_smoke.json shard_workers is ${shard_workers}")
endif()

# Reliability phase: the direct-injection counts are deterministic, so the
# report must carry the exact expected values (the binary also self-checks;
# this guards the metric names and the JSON plumbing).
string(JSON rel_ce ERROR_VARIABLE json_err GET "${report_json}" metrics reliability_ce)
if(json_err OR NOT rel_ce EQUAL 4)
  message(FATAL_ERROR "BENCH_smoke.json metrics.reliability_ce is '${rel_ce}', expected 4 (${json_err})")
endif()
string(JSON rel_due ERROR_VARIABLE json_err GET "${report_json}" metrics reliability_due)
if(json_err OR NOT rel_due EQUAL 1)
  message(FATAL_ERROR "BENCH_smoke.json metrics.reliability_due is '${rel_due}', expected 1 (${json_err})")
endif()
string(JSON rel_sdc ERROR_VARIABLE json_err GET "${report_json}" metrics reliability_sdc_unprotected)
if(json_err OR rel_sdc LESS 1)
  message(FATAL_ERROR "BENCH_smoke.json metrics.reliability_sdc_unprotected is '${rel_sdc}', expected >= 1 (${json_err})")
endif()

# Checkpoint phase: the binary already failed if the restored twin's
# continuation diverged from the uninterrupted run; here guard the metric
# names, the equality stamp, and that a sealed image actually landed on
# disk with a sane size. The warm-start speedup is recorded, not floored —
# it is a host-time measurement.
string(JSON ckpt_equal ERROR_VARIABLE json_err GET "${report_json}" metrics ckpt_equal)
if(json_err OR NOT ckpt_equal EQUAL 1)
  message(FATAL_ERROR "BENCH_smoke.json metrics.ckpt_equal is '${ckpt_equal}', expected 1 (${json_err})")
endif()
string(JSON ckpt_bytes ERROR_VARIABLE json_err GET "${report_json}" metrics ckpt_bytes)
if(json_err OR ckpt_bytes LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json metrics.ckpt_bytes is '${ckpt_bytes}' (${json_err})")
endif()
string(JSON ckpt_end ERROR_VARIABLE json_err GET "${report_json}" metrics ckpt_end_cycle)
if(json_err OR ckpt_end LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json metrics.ckpt_end_cycle is '${ckpt_end}' (${json_err})")
endif()
foreach(metric ckpt_warmup_wall_seconds ckpt_restore_wall_seconds ckpt_warm_start_speedup)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" metrics ${metric})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json metrics.${metric} missing (${json_err})")
  endif()
endforeach()

# Image format pin: the checkpoint layout is the field list of every
# component's fields(), and the smoke image is deterministic (the same bytes
# in every build type, clock mode, shard and job width). A layout change
# must bump ckpt::kVersion on purpose and re-record this hash of the
# 648,388-byte version-3 image (version 2 also carried all-bank refresh's
# cached last-ticked cycle, eight bytes per controller; version 1 also the
# removed "last drain was epoch-quantized" flag byte).
set(ckpt_sha256_recorded 8f41558f39761ef2fda0ae3fae43f24b3010ba1d1781e7b328d34f1a14b1fd75)
file(SHA256 "${out_dir}/CKPT_smoke.ckpt" ckpt_sha256)
if(NOT ckpt_sha256 STREQUAL ckpt_sha256_recorded)
  message(FATAL_ERROR "CKPT_smoke.ckpt layout changed: sha256 ${ckpt_sha256}, recorded "
                      "${ckpt_sha256_recorded}. Bump ckpt::kVersion and re-record the hash.")
endif()

# Serving phase: the open-loop facade pump is loss-free by contract —
# arrivals and completions must agree exactly, the span decomposition must
# stay exact under serving traffic, and the tail percentile must be there
# (the C25 bench builds on all three).
string(JSON srv_arrivals ERROR_VARIABLE json_err GET "${report_json}" metrics serving_arrivals)
if(json_err OR srv_arrivals LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json metrics.serving_arrivals is '${srv_arrivals}' (${json_err})")
endif()
string(JSON srv_completions ERROR_VARIABLE json_err GET "${report_json}" metrics serving_completions)
if(json_err OR NOT srv_completions EQUAL ${srv_arrivals})
  message(FATAL_ERROR "serving phase lost requests: arrivals=${srv_arrivals} "
                      "completions='${srv_completions}' (${json_err})")
endif()
string(JSON srv_p99 ERROR_VARIABLE json_err GET "${report_json}" metrics serving_p99)
if(json_err OR srv_p99 LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_smoke.json metrics.serving_p99 is '${srv_p99}' (${json_err})")
endif()
string(JSON srv_span_err ERROR_VARIABLE json_err GET "${report_json}" metrics serving_span_stage_sum_error)
if(json_err OR NOT srv_span_err EQUAL 0)
  message(FATAL_ERROR "serving span stages do not reconcile: "
                      "serving_span_stage_sum_error='${srv_span_err}' (${json_err})")
endif()

# Tail-latency percentiles: the log-bucketed recorder must surface both as
# top-level metrics and as expanded StatRegistry entries (including the
# lifecycle span stages), and the stage sums must reconcile exactly with
# the end-to-end read latency.
foreach(metric read_latency_p50 read_latency_p95 read_latency_p99 read_latency_p999 trace_dropped)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" metrics ${metric})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json metrics.${metric} missing (${json_err})")
  endif()
endforeach()
string(JSON span_err ERROR_VARIABLE json_err GET "${report_json}" metrics span_stage_sum_error)
if(json_err OR NOT span_err EQUAL 0)
  message(FATAL_ERROR "span stages do not sum to end-to-end latency: "
                      "span_stage_sum_error='${span_err}' (${json_err})")
endif()
foreach(stat sys.mem.ctrl0.read_latency.p999 sys.mem.ctrl0.span.queue.p50
             sys.mem.ctrl0.span.stall.p99 sys.mem.ctrl0.span.refresh.count
             sys.mem.ctrl0.span.xfer.max)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" stats ${stat})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json stats.${stat} missing (${json_err})")
  endif()
endforeach()

# Windowed time-series: at least one block with a positive period and at
# least one delta-encoded sample row.
string(JSON n_ts ERROR_VARIABLE json_err LENGTH "${report_json}" timeseries)
if(json_err OR n_ts LESS 1)
  message(FATAL_ERROR "BENCH_smoke.json has no timeseries block (${json_err})")
endif()
string(JSON ts_period ERROR_VARIABLE json_err GET "${report_json}" timeseries 0 period)
if(json_err OR ts_period LESS_EQUAL 0)
  message(FATAL_ERROR "timeseries[0].period is '${ts_period}' (${json_err})")
endif()
string(JSON n_samples ERROR_VARIABLE json_err LENGTH "${report_json}" timeseries 0 samples)
if(json_err OR n_samples LESS 1)
  message(FATAL_ERROR "timeseries[0] has no samples (${json_err})")
endif()

# Perf floor for the issue-loop fast path: the loaded host rate must be
# recorded, and (outside sanitizer builds, which are legitimately slow) the
# loaded phase must not run more than 30% slower, relative to the host, than
# when the floor was recorded. bench_smoke times a fixed, simulator-free
# reference loop on the same pinned CPU after each of its seven loaded
# repetitions, both in process CPU time, and reports the fastest loaded rate
# over the fastest reference rate (host_cycles_per_sec_loaded_ref_ratio:
# simulated cycles per reference loop). A host that is slow for the whole
# run slows both sides, so the floor holds the ratio, not the absolute rate,
# which failed on a contended host with unchanged code.
#
# Recorded as the median of 10 full-size runs, five RelWithDebInfo and five
# Release, on a 4-vCPU Xeon host: 132K (106K-137K; the lowest came in a
# slow spell of the host, with the loaded rate at 5.2M cyc/s). With a busy
# or a memory-bound process on every CPU, runs read 119K-152K.
set(loaded_ratio_recorded 132000)
math(EXPR loaded_ratio_floor "${loaded_ratio_recorded} * 7 / 10")
foreach(metric host_cycles_per_sec_loaded host_cycles_per_sec_loaded_ref_ratio)
  string(JSON value ERROR_VARIABLE json_err GET "${report_json}" metrics ${metric})
  if(json_err)
    message(FATAL_ERROR "BENCH_smoke.json metrics.${metric} missing (${json_err})")
  endif()
endforeach()
string(JSON loaded_cps GET "${report_json}" metrics host_cycles_per_sec_loaded)
string(JSON loaded_ratio GET "${report_json}" metrics host_cycles_per_sec_loaded_ref_ratio)
if(IMA_SANITIZE)
  message(STATUS "sanitizer build (${IMA_SANITIZE}): perf floor skipped, loaded rate ${loaded_cps} "
                 "cyc/s, ${loaded_ratio} cycles per reference loop")
elseif(loaded_ratio LESS loaded_ratio_floor)
  message(FATAL_ERROR "loaded host rate regressed: ${loaded_ratio} simulated cycles per reference "
                      "loop < floor ${loaded_ratio_floor} (recorded ${loaded_ratio_recorded}; "
                      "loaded rate ${loaded_cps} cyc/s)")
endif()

# The Chrome trace must parse and hold a non-empty traceEvents array with
# the fields the trace viewers key on.
file(READ "${out_dir}/TRACE_smoke.json" trace_json)
string(JSON n_events ERROR_VARIABLE json_err LENGTH "${trace_json}" traceEvents)
if(json_err)
  message(FATAL_ERROR "TRACE_smoke.json is not valid JSON: ${json_err}")
endif()
if(n_events LESS 1)
  message(FATAL_ERROR "TRACE_smoke.json has no events")
endif()
foreach(field name cat ph ts pid tid)
  string(JSON value ERROR_VARIABLE json_err GET "${trace_json}" traceEvents 0 ${field})
  if(json_err)
    message(FATAL_ERROR "trace event missing '${field}': ${json_err}")
  endif()
endforeach()

# Drop accounting: the ring-buffer sink must report how much it kept and
# how much it shed, so a truncated trace is never mistaken for a quiet run.
foreach(field recorded dropped capacity)
  string(JSON value ERROR_VARIABLE json_err GET "${trace_json}" metadata ${field})
  if(json_err)
    message(FATAL_ERROR "TRACE_smoke.json metadata missing '${field}': ${json_err}")
  endif()
endforeach()

message(STATUS "bench_smoke artifacts OK: ${n_events} trace events, ${cycles} cycles, "
               "${loaded_cps} loaded cyc/s")
