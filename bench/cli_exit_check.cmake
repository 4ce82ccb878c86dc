# CTest check of the command-line contract of the benches (bench/common.hpp)
# and the examples (util::CommandLine): runs one program with one argument
# in an empty working directory and fails unless it exits with EXPECT_EXIT,
# printed its usage (to stdout for exit 0, to stderr otherwise) and left the
# directory empty — no work done, no file written.
#
#   cmake -DPROGRAM=<binary> -DARG=<argument> -DEXPECT_EXIT=<status>
#         -DWORK_DIR=<empty dir> [-DENV_NAME=<var> -DENV_VALUE=<value>]
#         -P cli_exit_check.cmake
#
# ENV_NAME/ENV_VALUE set one environment variable for the program.

foreach(var PROGRAM ARG EXPECT_EXIT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_exit_check: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
if(DEFINED ENV_NAME)
  set(ENV{${ENV_NAME}} "${ENV_VALUE}")
endif()
# A program that ignored the argument would start a full run; the timeout
# turns that into a failure instead of a minutes-long hang.
execute_process(COMMAND "${PROGRAM}" "${ARG}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 30)

if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${PROGRAM} ${ARG}: exit status '${status}', expected "
    "${EXPECT_EXIT}\n--- stdout\n${out}\n--- stderr\n${err}")
endif()
if(EXPECT_EXIT EQUAL 0)
  set(usage_stream "${out}")
else()
  set(usage_stream "${err}")
endif()
if(NOT usage_stream MATCHES "usage: ")
  message(FATAL_ERROR "${PROGRAM} ${ARG}: no usage on the expected stream\n"
    "--- stdout\n${out}\n--- stderr\n${err}")
endif()
file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "${PROGRAM} ${ARG}: wrote ${written}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
