# Run a bench and compare its stdout byte for byte with a committed
# golden report.
#
#   cmake -DBENCH=<bench> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         [-DSTORE=<dir>] [-DFANOUT=<n>] -P diff_golden.cmake
#   cmake -DBENCH=<bench> -DARGS="<args>" -DEXPECT_EXIT=<code>
#         -P diff_golden.cmake
#
# ARGS is one space-separated string. With STORE set, the bench runs
# twice against a fresh result store in STORE: both reports must
# match the golden, and the second (warm) run must read every slice
# from the store (hits and "misses": 0 in its --cache-stats line; a
# disabled store counts neither). With FANOUT set, every run's stderr
# must say it fanned out over that many threads. On a mismatch the
# actual report is written to OUT for `diff`. With EXPECT_EXIT set,
# the bench runs once and must exit with that code; its output is not
# compared.

separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(name ${BENCH} NAME)

if(DEFINED EXPECT_EXIT)
    execute_process(
        COMMAND ${BENCH} ${args}
        OUTPUT_VARIABLE actual
        ERROR_VARIABLE log
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL EXPECT_EXIT)
        message(FATAL_ERROR "${name} ${ARGS} exited with ${rc}, "
                            "expected ${EXPECT_EXIT}:\n${log}")
    endif()
    return()
endif()

if(DEFINED STORE)
    file(REMOVE_RECURSE ${STORE})
    list(APPEND args --cache-dir=${STORE} --cache-stats)
    set(runs cold warm)
else()
    set(runs once)
endif()

file(READ ${GOLDEN} expected)
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
    if(DEFINED FANOUT AND
       NOT log MATCHES "simulation fan-out: ${FANOUT} thread\\(s\\)")
        message(FATAL_ERROR "${name} (${run}) did not fan out over "
                            "${FANOUT} thread(s):\n${log}")
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
