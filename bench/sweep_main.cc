/**
 * @file
 * bench_<name>: one paper table or figure, built once per spec with
 * SAVE_SWEEP_NAME naming it. What each report shows is in its spec's
 * file under src/sweep/; the flags are in bench_util.h (`--help`
 * prints them). With --sockets the points are shared with save-serve
 * daemons; the report is the same bytes either way.
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    return save::sweepMain(argc, argv, SAVE_SWEEP_NAME);
}
