# Run bench_simspeed and require the exact counters of every row —
# sim_cycles, ff_jumps and ff_cycles_skipped — to equal the committed
# baseline. The fast-forward counters are kept out of stat maps, so
# test_statmaps cannot see them; this pins them in tier-1. The
# baseline's speed fields are another host's and are not compared.
#
#   cmake -DBENCH=<bench_simspeed> -DBASELINE=<json> -P simspeed_counters.cmake

execute_process(
    COMMAND ${BENCH} --json
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE log
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_simspeed exited with ${rc}:\n${log}")
endif()
file(READ ${BASELINE} expected)

string(JSON rows LENGTH "${expected}" benchmarks)
string(JSON actual_rows LENGTH "${actual}" benchmarks)
if(NOT actual_rows EQUAL rows)
    message(FATAL_ERROR "bench_simspeed printed ${actual_rows} rows; "
                        "the baseline has ${rows}")
endif()

set(failures "")
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${expected}" benchmarks ${i} name)
    string(JSON actual_name GET "${actual}" benchmarks ${i} name)
    if(NOT actual_name STREQUAL name)
        message(FATAL_ERROR "row ${i} is ${actual_name}; the baseline "
                            "has ${name}")
    endif()
    foreach(counter sim_cycles ff_jumps ff_cycles_skipped)
        string(JSON want GET "${expected}" benchmarks ${i} ${counter})
        string(JSON got GET "${actual}" benchmarks ${i} ${counter})
        if(NOT got EQUAL want)
            string(APPEND failures
                   "FAIL ${name} ${counter}: ${got} (baseline ${want})\n")
        endif()
    endforeach()
endforeach()
if(failures)
    message(FATAL_ERROR "bench_simspeed counters moved:\n${failures}")
endif()
