# Runs BINARY and fails unless it exits 0 and its stdout hashes to SHA256.
#   cmake -DBINARY=<path> -DSHA256=<hex digest> -P check_stdout.cmake
# The run inherits the caller's environment (DIABLO_SCALE, DIABLO_JOBS, ...);
# stderr passes through untouched, so the wall-clock `[runner]` lines never
# reach the digest.
execute_process(COMMAND "${BINARY}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with '${rc}'")
endif()
string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
  message(FATAL_ERROR "${BINARY}: stdout SHA-256 is ${got}, expected ${SHA256}. "
                      "If the output change is intended, update the digest in "
                      "bench/CMakeLists.txt and say why in CHANGES.md.\n${out}")
endif()
