# Run one reproduction binary and require its stdout to equal a
# committed golden, byte for byte, except the wall-clock lines named
# below (masked on both sides).
#
#   cmake -DCOMMAND=<binary> [-DARGS=a|b|c] -DGOLDEN=<file>
#         -DACTUAL=<file> -P check_golden.cmake
#
# ARGS separates arguments with '|' (a ';' would split the -D value).
# On a mismatch the actual stdout is written to ACTUAL and the first
# differing line is reported; `diff GOLDEN ACTUAL` shows the rest.

cmake_policy(SET CMP0007 NEW) # keep empty lines when splitting

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${COMMAND} ${args} exited with ${status}")
endif()
file(READ "${GOLDEN}" golden)

# Timings that are wall-clock measurements, not model outputs.
function(mask_wall_clock var)
    set(text "${${var}}")
    string(REGEX REPLACE "Executed Q2[^\n]*" "Executed Q2 <wall clock>"
           text "${text}")
    string(REGEX REPLACE "SSH signature throughput[^\n]*"
           "SSH signature throughput <wall clock>" text "${text}")
    set(${var} "${text}" PARENT_SCOPE)
endfunction()
mask_wall_clock(actual)
mask_wall_clock(golden)

if (actual STREQUAL golden)
    return()
endif()

file(WRITE "${ACTUAL}" "${actual}")
string(REPLACE "\n" ";" actual_lines "${actual}")
string(REPLACE "\n" ";" golden_lines "${golden}")
list(LENGTH actual_lines actual_count)
list(LENGTH golden_lines golden_count)
set(line 0)
while (line LESS actual_count AND line LESS golden_count)
    list(GET actual_lines ${line} a)
    list(GET golden_lines ${line} g)
    if (NOT a STREQUAL g)
        break()
    endif()
    math(EXPR line "${line} + 1")
endwhile()
set(want "<end of output>")
set(got "<end of output>")
if (line LESS golden_count)
    list(GET golden_lines ${line} want)
endif()
if (line LESS actual_count)
    list(GET actual_lines ${line} got)
endif()
math(EXPR line_number "${line} + 1")
message(FATAL_ERROR
    "stdout differs from ${GOLDEN} at line ${line_number}\n"
    "  golden: ${want}\n"
    "  actual: ${got}\n"
    "full output: ${ACTUAL}")
