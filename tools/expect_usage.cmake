# Passes when PROG, run with ARGS (one space-separated string), exits 2
# and prints a usage line; a crash, a hang, a run that goes ahead or any
# other exit code fails.
#
#   cmake -DPROG=path/to/binary "-DARGS=--flag value" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "2" OR NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR
          "${PROG} ${ARGS}: expected exit 2 and a usage line, got "
          "'${rc}'\n${out}${err}")
endif()
