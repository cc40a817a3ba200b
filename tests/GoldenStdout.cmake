# Runs one program as a CTest script and checks that it exits 0 and that
# its stdout equals a golden file byte for byte.
#
# Inputs: BIN (the program), ARGS (its ;-separated arguments) and GOLDEN
# (the expected stdout).

if(NOT BIN OR NOT GOLDEN)
  message(FATAL_ERROR "need -DBIN and -DGOLDEN")
endif()

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "'${BIN} ${ARGS}' exited ${rv}\nstderr:\n${err}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "'${BIN} ${ARGS}' stdout differs from ${GOLDEN}\n"
                      "--- got:\n${out}\n--- want:\n${want}")
endif()
