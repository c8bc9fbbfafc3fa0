# cmake -DCOMMAND=<executable> [-DARGS=<args>] -DOUT=<file> -P stdout_to_file.cmake
#
# Runs COMMAND with ARGS (one string, split like a shell command line, in
# the caller's environment) and writes its stdout to OUT; stderr passes
# through. Fails when COMMAND exits nonzero.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited ${rc}")
endif()
