# Run one binary and compare its stdout with a committed golden file.
#
#   cmake -DCOMMAND=<exe> [-DARGS="<arg> ..."] -DGOLDEN=<file>
#         -DWORK_DIR=<dir> -P check_golden.cmake
#
# The binary runs with VFPGA_JSON_DIR=<WORK_DIR>, so parallel goldens never
# share a BENCH_*.json. `wrote <path>` lines name that directory and are
# stripped; everything else must match byte for byte. On a mismatch the
# actual output is left in <WORK_DIR>/actual.txt and a unified diff is
# printed.
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VFPGA_JSON_DIR} "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args} OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} ${ARGS} exited with ${rc}")
endif()

# Anchor every line on a preceding newline, drop the `wrote` lines, then
# remove the anchor again.
string(REGEX REPLACE "\nwrote [^\n]*" "" out "\n${out}")
string(SUBSTRING "${out}" 1 -1 out)

set(actual "${WORK_DIR}/actual.txt")
file(WRITE "${actual}" "${out}")
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (actual: ${actual})")
endif()
