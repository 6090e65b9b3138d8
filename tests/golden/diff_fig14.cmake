# Run bench_fig14 at the smoke config and compare its stdout byte for
# byte with a committed golden report.
#
#   cmake -DBENCH=<bench_fig14> -DTHREADS=<n> -DGOLDEN=<file>
#         -DOUT=<file> -P diff_fig14.cmake
#
# On a mismatch the actual report is written to OUT for `diff`.

execute_process(
    COMMAND ${BENCH} --grid=9 --ksteps=8 --tiles=1 --seed=7
            --threads=${THREADS} --cache-dir=none --journal=none
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE log
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_fig14 exited with ${rc}:\n${log}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${OUT} "${actual}")
    message(FATAL_ERROR "bench_fig14 --threads=${THREADS} differs from "
                        "the golden report; see: diff ${GOLDEN} ${OUT}")
endif()
