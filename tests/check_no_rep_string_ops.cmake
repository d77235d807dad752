# Fail when any function in a binary copies or fills with an inline
# `rep movs` or `rep stos`, and name every such function.
#
#   cmake -DOBJDUMP=<objdump> -DBINARY=<file> -DWORK_DIR=<dir>
#         -P check_no_rep_string_ops.cmake
#
# The top-level CMakeLists.txt compiles with -mstringop-strategy=libcall
# so that block copies and fills go to libc's memcpy/memset; this check
# keeps it so for every function, present and future.
file(MAKE_DIRECTORY "${WORK_DIR}")
set(listing "${WORK_DIR}/disassembly.txt")
execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${BINARY}"
                OUTPUT_FILE "${listing}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${BINARY} exited with ${rc}")
endif()

# Keep only function headers (`<addr> <name>:`) and the offending
# instructions; each instruction belongs to the last header above it.
file(STRINGS "${listing}" lines
     REGEX "^[0-9a-f]+ <.*>:$|\trep (movs|stos)")
set(function "")
set(offenders "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
    set(function "${CMAKE_MATCH_1}")
  elseif(NOT function STREQUAL "")
    list(APPEND offenders "${function}")
    set(function "")
  endif()
endforeach()

list(LENGTH offenders count)
if(count GREATER 0)
  list(JOIN offenders "\n  " names)
  message(FATAL_ERROR
          "${count} functions in ${BINARY} contain `rep movs` or "
          "`rep stos`:\n  ${names}")
endif()
