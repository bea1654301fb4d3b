# Whole-binary golden: run BIN with ARGS (a ;-list), hash its stdout with
# SHA-256 and compare with the hash committed in GOLDEN. stderr (wall
# time, [note] lines) is not hashed. A mismatch prints both hashes and
# the output, so the first differing line can be found by diffing it
# against a run of the parent commit.
#
#   cmake -DBIN=path/to/bench -DARGS="--reps;1" -DGOLDEN=file.sha256 \
#         -P tests/golden/check_stdout.cmake
#
# A golden is re-recorded only for a deliberate change of simulated
# behaviour, and the change says so.
foreach(var BIN GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${BIN}" ${ARGS}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${rc}:\n${err}")
endif()

file(READ "${GOLDEN}" expected)
string(STRIP "${expected}" expected)
string(SHA256 actual "${out}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} changed\n"
                      "  golden: ${expected}\n  actual: ${actual}\n"
                      "--- stdout ---\n${out}")
endif()
