# Run one traced binary and require the SHA-256 of the Chrome trace it
# exports to equal a committed digest (golden/traces.sha256).
#
#   cmake -DCOMMAND=<binary> [-DARGS=a|b|c] -DTRACE=<file>
#         -DSHA256=<hex> -P check_trace_golden.cmake
#
# ARGS separates arguments with '|' as in check_golden.cmake; the
# script appends `--trace TRACE`. On a mismatch the trace is kept at
# TRACE for `cmp` against a known-good export; on a match it is
# removed (a chaos trace is tens of MB).

string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${TRACE}")
execute_process(COMMAND ${COMMAND} ${args} --trace ${TRACE}
                OUTPUT_QUIET
                RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${COMMAND} ${args} exited with ${status}")
endif()
if (NOT EXISTS "${TRACE}")
    message(FATAL_ERROR "${COMMAND} ${args} wrote no trace ${TRACE}")
endif()
file(SHA256 "${TRACE}" actual)
if (NOT actual STREQUAL SHA256)
    message(FATAL_ERROR
        "trace bytes changed\n"
        "  golden sha256: ${SHA256}\n"
        "  actual sha256: ${actual}\n"
        "trace kept at ${TRACE}")
endif()
file(REMOVE "${TRACE}")
