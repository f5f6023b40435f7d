# Runs the CLI with malformed numeric flags: each must print the usage
# message and exit 1 (the documented usage-error code), never abort. The
# usage message also names --match-sequences, which the header documents.
#
#   cmake -DCLI=path/to/parcoachmt_cli -DSOURCE_DIR=path/to/repo -P cli_flags.cmake
set(program "${SOURCE_DIR}/tests/cli_flags_program.mhpc")
set(bad_flags
    --hang-timeout-ms=abc
    --timeout-ms=12ms
    --soft-deadline-ms=
    --hard-deadline-ms=-1
    --ranks=0
    --ranks=99999999999
    --threads=2x
    --fault-seed=-3
    --fault-seed=18446744073709551616)
foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND "${CLI}" run "${program}" "${flag}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${flag}: expected exit 1, got '${code}'\n${err}")
  endif()
  if(NOT err MATCHES "invalid value in ${flag}"
     OR NOT err MATCHES "usage: parcoachmt \\{analyze\\|instrument\\|run\\}")
    message(FATAL_ERROR "${flag}: usage message missing; stderr was:\n${err}")
  endif()
  if(NOT err MATCHES "\\[--match-sequences\\]")
    message(FATAL_ERROR "usage message omits --match-sequences:\n${err}")
  endif()
endforeach()
# A well-formed value still runs.
execute_process(COMMAND "${CLI}" run "${program}" --ranks=3 --hang-timeout-ms=500
                RESULT_VARIABLE code ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "valid flags: expected exit 0, got '${code}'\n${err}")
endif()
