# Cross-run determinism check: bench_smoke must produce an equivalent
# BENCH_smoke.json (modulo host-time keys) at any worker width, shard
# width and epoch, and under either clock mode. Invoked by ctest as
#   cmake -DSMOKE_BIN=<bench_smoke> -DDIFF_TOOL=<bench_diff.py>
#         -DPYTHON=<python3> -P bench_diff_check.cmake
cmake_minimum_required(VERSION 3.19)

foreach(var SMOKE_BIN DIFF_TOOL PYTHON)
  if(NOT ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

set(base_dir "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_out")
file(REMOVE_RECURSE "${base_dir}")

# label -> extra environment for that run. The baseline uses the suite's
# default environment; the variants pin the knobs the report must not see.
set(runs baseline jobs1 jobs8 percycle shards1 shards8 epoch997 ckptload)
set(env_baseline "")
set(env_jobs1 "IMA_JOBS=1")
set(env_jobs8 "IMA_JOBS=8")
set(env_percycle "IMA_CLOCK=percycle")
# Intra-sim shard width: the sharded smoke phase must emit an equivalent
# report (shard_workers/wall/speedup are host-time keys the tool masks;
# shard_cycles and the stats snapshot are compared exactly).
set(env_shards1 "IMA_SHARDS=1")
set(env_shards8 "IMA_SHARDS=8")
# Shard barrier spacing: an epoch that divides no default must not move
# shard_cycles or anything else the sharded phases report.
set(env_epoch997 "IMA_SHARD_EPOCH=997")
# Cross-process resume: the checkpoint phase warm-starts from the image the
# baseline run sealed (instead of the one it writes itself). A restored run
# in a different process must report the same simulated quantities — the
# crash-recovery contract, checked at report granularity. Runs after
# baseline, which wrote the image.
set(env_ckptload "IMA_CKPT_LOAD=${base_dir}/baseline/CKPT_smoke.ckpt")

foreach(run ${runs})
  set(out_dir "${base_dir}/${run}")
  file(MAKE_DIRECTORY "${out_dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env IMA_BENCH_OUT=${out_dir} ${env_${run}}
            ${SMOKE_BIN}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke (${run}) exited with ${run_rc}:\n${run_out}\n${run_err}")
  endif()
endforeach()

foreach(run jobs1 jobs8 percycle shards1 shards8 epoch997 ckptload)
  execute_process(
    COMMAND ${PYTHON} ${DIFF_TOOL}
            ${base_dir}/baseline/BENCH_smoke.json
            ${base_dir}/${run}/BENCH_smoke.json
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "BENCH_smoke.json differs: baseline vs ${run}:\n${diff_out}${diff_err}")
  endif()
  message(STATUS "baseline vs ${run}: ${diff_out}")
endforeach()

# Cross-VERSION determinism: the committed golden was recorded before the
# SoA bank-timing kernel rewrite. A fresh run must still be equivalent
# (host-time keys masked) — the kernel is a pure-performance change, and
# any simulated-cycle drift it introduces fails here, not in a reviewer's
# eyeball diff. --subset: phases added after the recording (the checkpoint
# phase) are allowed to contribute new fields; every field the golden
# carries is still compared exactly.
if(GOLDEN_SMOKE)
  execute_process(
    COMMAND ${PYTHON} ${DIFF_TOOL} --subset
            ${GOLDEN_SMOKE}
            ${base_dir}/baseline/BENCH_smoke.json
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "BENCH_smoke.json drifted from the committed pre-SoA golden:\n${diff_out}${diff_err}")
  endif()
  message(STATUS "pre-SoA golden vs baseline: ${diff_out}")
endif()
