# Cross-version pin for one claim bench: run it in smoke mode and require
# every field of its committed golden report to match (host-time keys
# masked by tools/bench_diff.py --subset). Invoked by ctest as
#   cmake -DBENCH_BIN=<bench> -DBENCH_ID=<id> -DGOLDEN=<json>
#         -DDIFF_TOOL=<bench_diff.py> -DPYTHON=<python3>
#         [-DVARIANT=<name> -DENV=<VAR=value>] -P bench_golden_check.cmake
# ENV is one extra environment assignment the report must not see (e.g.
# IMA_CLOCK=percycle or IMA_SHARD_EPOCH=997); VARIANT names the run, and
# its output lands in golden_out/<id>_<variant> (golden_out/<id>_ without).
cmake_minimum_required(VERSION 3.19)

foreach(var BENCH_BIN BENCH_ID GOLDEN DIFF_TOOL PYTHON)
  if(NOT ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

set(out_dir "${CMAKE_CURRENT_BINARY_DIR}/golden_out/${BENCH_ID}_${VARIANT}")
file(REMOVE_RECURSE "${out_dir}")
file(MAKE_DIRECTORY "${out_dir}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env IMA_BENCH_OUT=${out_dir} IMA_BENCH_SMOKE=1 ${ENV}
          ${BENCH_BIN}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} exited with ${run_rc}:\n${run_out}\n${run_err}")
endif()

# The report file is named after the bench's header id (e.g. "C13_(ext)"),
# and each of these benches writes exactly one.
file(GLOB reports "${out_dir}/BENCH_${BENCH_ID}*.json")
list(LENGTH reports n_reports)
if(NOT n_reports EQUAL 1)
  message(FATAL_ERROR "expected one BENCH_${BENCH_ID}*.json in ${out_dir}, found ${n_reports}")
endif()
execute_process(
  COMMAND ${PYTHON} ${DIFF_TOOL} --subset ${GOLDEN} ${reports}
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "${reports} drifted from ${GOLDEN}:\n${diff_out}${diff_err}")
endif()
message(STATUS "${BENCH_ID} ${ENV}: ${diff_out}")
