# Runs one command line and pins the artifact it writes. ctest runs it as
#
#   cmake -DNAME=ARTIFACT -DOUT=FILE -DMANIFEST=results_manifest.tsv
#         -P check_result.cmake -- PROGRAM ARGS...
#
# The command must exit 0, and the sha256 of FILE must equal the digest
# on ARTIFACT's row of MANIFEST (lines "ARTIFACT<TAB>SHA256"). With
# -DSTDOUT=1 the artifact is the command's stdout, captured into FILE.
# Without NAME the command is only run; -DCLEAN=DIR removes DIR before
# it runs (the fixture that sweeps into a fresh store).
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

if(DEFINED CLEAN)
  file(REMOVE_RECURSE "${CLEAN}")
endif()
if(DEFINED OUT)
  file(REMOVE "${OUT}")
endif()
if(STDOUT)
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_FILE "${OUT}"
                  ERROR_VARIABLE err)
else()
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${cmd}: exit ${rc}; stderr: ${err}")
endif()
if(NOT DEFINED NAME)
  return()
endif()

set(want "")
file(STRINGS "${MANIFEST}" rows)
foreach(row IN LISTS rows)
  string(REPLACE "\t" ";" fields "${row}")
  list(GET fields 0 artifact)
  if(artifact STREQUAL NAME)
    list(GET fields 1 want)
  endif()
endforeach()
if(want STREQUAL "")
  message(FATAL_ERROR "${NAME}: no row in ${MANIFEST}")
endif()
file(SHA256 "${OUT}" got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${NAME} changed: sha256 ${got}, manifest ${want}")
endif()
