# cmake -DCOMMAND=<executable> [-DARGS=<args>] -DEXIT=<code> -P expect_exit.cmake
#
# Runs COMMAND with ARGS (one string, split like a shell command line) and
# fails unless it exits with status EXIT; a crash (a signal) fails too.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${COMMAND} exited ${rc}, want ${EXIT}")
endif()
