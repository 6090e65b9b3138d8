# Record the pinned slices with save-trace and compare every recorded
# stat map with a committed golden, so a change that moves any
# simulated counter (cycles, cw_sum, passthrough_lanes, ...) fails.
#
#   cmake -DTRACE=<save-trace> -DGOLDEN=<file> -DOUT=<file>
#         -DWORK=<dir> -P statmaps.cmake
#
# The slices: baseline, VC, RVC and HC x FP32/BF16 x dense, 50/60% and
# 80/80% (broadcast/non-broadcast) sparsity, each one 7x3 GEMM tile
# row at --ksteps=48 --tiles=2 --seed=7. Each map is printed with
# `save-trace stats --json` (integral values exact, the rest %.17g).
# On a mismatch the actual maps are written to OUT for `diff`; after a
# change that is meant to move a counter, copy OUT over the golden and
# say why in EXPERIMENTS.md.

set(knobs --mr=7 --nr=3 --ksteps=48 --tiles=2 --seed=7)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(actual "")
foreach(policy baseline vc rvc hc)
    foreach(precision fp32 bf16)
        foreach(sparsity 0/0 50/60 80/80)
            string(REPLACE "/" ";" pair ${sparsity})
            list(GET pair 0 bs)
            list(GET pair 1 nbs)
            set(label "${policy} ${precision} bs=${bs} nbs=${nbs}")
            set(trace ${WORK}/${policy}_${precision}_${bs}_${nbs}.savtrc)
            execute_process(
                COMMAND ${TRACE} record --out=${trace} --policy=${policy}
                        --precision=${precision} --bs=${bs} --nbs=${nbs}
                        ${knobs}
                OUTPUT_QUIET
                ERROR_VARIABLE log
                RESULT_VARIABLE rc)
            if(NOT rc EQUAL 0)
                message(FATAL_ERROR "save-trace record (${label}) exited "
                                    "with ${rc}:\n${log}")
            endif()
            execute_process(
                COMMAND ${TRACE} stats --in=${trace} --json
                OUTPUT_VARIABLE stats
                ERROR_VARIABLE log
                RESULT_VARIABLE rc)
            if(NOT rc EQUAL 0)
                message(FATAL_ERROR "save-trace stats (${label}) exited "
                                    "with ${rc}:\n${log}")
            endif()
            string(APPEND actual "== ${label}\n${stats}")
        endforeach()
    endforeach()
endforeach()
file(REMOVE_RECURSE ${WORK})

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${OUT} "${actual}")
    message(FATAL_ERROR "recorded stat maps differ from the golden; "
                        "see: diff ${GOLDEN} ${OUT}")
endif()
