# Runs one gpuwmm command as a CTest script and checks its exit status
# and stderr exactly (a plain PASS_REGULAR_EXPRESSION ignores the exit
# status).
#
# Inputs: GPUWMM_BIN (the gpuwmm binary), ARGS (the ;-separated command
# line), EXIT (the expected exit status), STDERR_REGEX (what stderr must
# match) and, optionally, STDOUT_REGEX (what stdout must match).

if(NOT GPUWMM_BIN OR NOT DEFINED EXIT OR NOT DEFINED STDERR_REGEX)
  message(FATAL_ERROR "need -DGPUWMM_BIN, -DEXIT and -DSTDERR_REGEX")
endif()

execute_process(COMMAND ${GPUWMM_BIN} ${ARGS}
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL EXIT)
  message(FATAL_ERROR "'${ARGS}' exited ${rv}, want ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "'${ARGS}' stderr does not match '${STDERR_REGEX}':\n"
                      "${err}")
endif()
if(DEFINED STDOUT_REGEX AND NOT out MATCHES "${STDOUT_REGEX}")
  message(FATAL_ERROR "'${ARGS}' stdout does not match '${STDOUT_REGEX}':\n"
                      "${out}")
endif()
