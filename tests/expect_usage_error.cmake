# Passes when one command line is rejected as a usage error: exit code
# 2, with FLAG named on stderr. ctest runs it as
#
#   cmake -DFLAG=--maxk -P expect_usage_error.cmake -- PROGRAM ARGS...
#
# -DCODE=N expects exit code N instead of 2 (FLAG is then any text
# stderr must contain, e.g. the path of a file that cannot be written).
if(NOT DEFINED CODE)
  set(CODE 2)
endif()
set(cmd "")
set(past FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(past)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(past TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
string(FIND "${err}" "${FLAG}" at)
if(NOT rc EQUAL CODE OR at EQUAL -1)
  message(FATAL_ERROR "${cmd}: exit ${rc}, want exit ${CODE} naming ${FLAG}; "
                      "stderr: ${err}")
endif()
