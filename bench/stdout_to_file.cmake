# cmake -DCOMMAND=<executable> -DOUT=<file> -P stdout_to_file.cmake
#
# Runs COMMAND (in the caller's environment) and writes its stdout to
# OUT; stderr passes through. Fails when COMMAND exits nonzero.
execute_process(COMMAND ${COMMAND} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited ${rc}")
endif()
