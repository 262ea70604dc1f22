# qd_served must reject malformed or negative counts with its usage (exit
# 2) instead of reading them as 0 or a negative count, which the engine
# takes as "all cores" for every job. Each case runs the --stdin loop on
# empty input, so an accepted command line exits at once.
#
#   cmake -DQD_SERVED=<path to qd_served> -P qd_served_flags.cmake

if(NOT QD_SERVED)
  message(FATAL_ERROR "pass -DQD_SERVED=<path to qd_served>")
endif()

function(expect_exit code)
  list(JOIN ARGN " " shown)
  execute_process(COMMAND ${QD_SERVED} --stdin ${ARGN}
                  INPUT_FILE /dev/null
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "qd_served --stdin ${shown}: exit '${rc}', "
                        "expected ${code}\n${err}")
  endif()
  if(code EQUAL 2 AND NOT err MATCHES "usage: qd_served")
    message(FATAL_ERROR "qd_served --stdin ${shown}: no usage on stderr")
  endif()
endfunction()

expect_exit(0)
expect_exit(0 --engine-threads 0 --workers 4 --queue 16)
expect_exit(0 --max-client-jobs 3 --max-client-shots 5000)
expect_exit(2 --engine-threads four)
expect_exit(2 --engine-threads -1)
expect_exit(2 --workers -3 --engine-threads -1)
expect_exit(2 --engine-threads 4x)
expect_exit(2 --engine-threads +2)
expect_exit(2 --workers 99999999999)
expect_exit(2 --queue -1)
expect_exit(2 --max-client-jobs 1.5)
expect_exit(2 --max-client-shots 1e6)
