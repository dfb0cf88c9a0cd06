# CLI contract check, run in script mode:
#
#   cmake -DEXPECT_STATUS=<n> -DEXPECT_REGEX=<re> -P expect_exit.cmake -- <cmd> [args...]
#
# Runs <cmd>, then fails unless it exited with exactly <n> and its combined
# stdout+stderr matches <re>.  ctest's PASS_REGULAR_EXPRESSION alone ignores
# the exit status; a usage error has to be both the right message and 2.
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT_STATUS}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_STATUS}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}${err}")
endif()
