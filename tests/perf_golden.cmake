# Diff `perf_suite --set=smoke --timings=false --metrics` against the
# committed counter golden. Run by ctest as
#   cmake -DPERF_SUITE=<perf_suite> -DGOLDEN=<golden.json> -P perf_golden.cmake
# The output is a pure function of the code (seeded, timings off), so any
# difference is a change to a deterministic counter or trajectory.
execute_process(
  COMMAND ${PERF_SUITE} --set=smoke --timings=false --metrics
  OUTPUT_VARIABLE head
  ERROR_VARIABLE progress
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_suite exited ${rc}:\n${progress}")
endif()
file(READ ${GOLDEN} golden)
if(head STREQUAL golden)
  return()
endif()

# Name the presets whose block changed (or every preset, if the preset
# lists themselves differ).
set(changed "")
string(JSON n_head ERROR_VARIABLE err LENGTH "${head}" presets)
string(JSON n_gold ERROR_VARIABLE err LENGTH "${golden}" presets)
if(n_head EQUAL n_gold AND n_head GREATER 0)
  math(EXPR last "${n_head} - 1")
  foreach(i RANGE ${last})
    string(JSON h GET "${head}" presets ${i})
    string(JSON g GET "${golden}" presets ${i})
    if(NOT h STREQUAL g)
      string(JSON name GET "${head}" presets ${i} name)
      list(APPEND changed ${name})
    endif()
  endforeach()
else()
  set(changed "the preset list (${n_gold} presets recorded, ${n_head} now)")
endif()
message(FATAL_ERROR
  "perf_suite smoke counters differ from ${GOLDEN}\n"
  "changed: ${changed}\n"
  "expected:\n${golden}\n"
  "actual:\n${head}\n"
  "If the change is intended, re-record the golden from the repository "
  "root and say so in CHANGES.md:\n"
  "  ./build/bench/perf_suite --set=smoke --timings=false --metrics "
  "> tests/golden/perf_smoke_metrics.json")
