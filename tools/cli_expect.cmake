# CLI test driver: run a command and check both its exit status and its
# output (stdout and stderr together).
#
# Usage:
#   cmake "-DCMD=<program>;<arg>;..." -DRC=<exit status> -DREGEX=<regex>
#         [-DMIN_MATCHES=N] [-DFRESH_DIR=<dir>] [-DCREATES=<file>]
#         -P cli_expect.cmake
#
# The test fails unless the command exits with status RC and its output
# matches REGEX at least MIN_MATCHES times (default 1). FRESH_DIR is
# removed before the command runs; CREATES must exist after it.

if(NOT DEFINED MIN_MATCHES)
    set(MIN_MATCHES 1)
endif()
if(DEFINED FRESH_DIR)
    file(REMOVE_RECURSE "${FRESH_DIR}")
endif()

execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")

if(NOT rc STREQUAL "${RC}")
    message(FATAL_ERROR
            "expected exit status ${RC}, got ${rc}; output:\n${all}")
endif()
string(REGEX MATCHALL "${REGEX}" matches "${all}")
list(LENGTH matches n)
if(n LESS ${MIN_MATCHES})
    message(FATAL_ERROR
            "expected at least ${MIN_MATCHES} matches of '${REGEX}', got "
            "${n}; output:\n${all}")
endif()
if(DEFINED CREATES AND NOT EXISTS "${CREATES}")
    message(FATAL_ERROR "expected the command to create ${CREATES}; "
            "output:\n${all}")
endif()
