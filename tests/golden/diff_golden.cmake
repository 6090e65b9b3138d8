# Run a bench and compare its stdout byte for byte with a committed
# golden report.
#
#   cmake -DBENCH=<bench> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         [-DSTORE=<dir>] -P diff_golden.cmake
#
# ARGS is one space-separated string. With STORE set, the bench runs
# twice against a fresh result store in STORE: both reports must
# match the golden, and the second (warm) run must read every slice
# from the store (hits and "misses": 0 in its --cache-stats line; a
# disabled store counts neither). On a mismatch the actual report is
# written to OUT for `diff`.

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED STORE)
    file(REMOVE_RECURSE ${STORE})
    list(APPEND args --cache-dir=${STORE} --cache-stats)
    set(runs cold warm)
else()
    set(runs once)
endif()

file(READ ${GOLDEN} expected)
get_filename_component(name ${BENCH} NAME)
foreach(run ${runs})
    execute_process(
        COMMAND ${BENCH} ${args}
        OUTPUT_VARIABLE actual
        ERROR_VARIABLE log
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} (${run}) exited with ${rc}:\n${log}")
    endif()
    if(NOT actual STREQUAL expected)
        file(WRITE ${OUT} "${actual}")
        message(FATAL_ERROR "${name} ${ARGS} (${run}) differs from the "
                            "golden report; see: diff ${GOLDEN} ${OUT}")
    endif()
endforeach()

if(DEFINED STORE)
    if(NOT log MATCHES "\"hits\": [1-9]" OR
       NOT log MATCHES "\"misses\": 0,")
        message(FATAL_ERROR "${name}: the warm run did not read every "
                            "slice from the store:\n${log}")
    endif()
    file(REMOVE_RECURSE ${STORE})
endif()
