# Runs BINARY with ARGS (one string, split like a shell command line) and
# fails unless it exits with EXIT, its stderr matches STDERR_REGEX and its
# stdout matches STDOUT_REGEX.
#   cmake -DBINARY=<path> "-DARGS=<args>" -DEXIT=<code> "-DSTDERR_REGEX=<regex>"
#         "-DSTDOUT_REGEX=<regex>" -P check_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args} OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with '${rc}', expected ${EXIT}\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${BINARY} ${ARGS}: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
if(NOT out MATCHES "${STDOUT_REGEX}")
  message(FATAL_ERROR "${BINARY} ${ARGS}: stdout does not match '${STDOUT_REGEX}':\n${out}")
endif()
