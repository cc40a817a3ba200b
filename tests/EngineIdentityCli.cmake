# CLI engine identity for compiled straight-line programs, run as a CTest
# script (cli.engine_identity_litmus_fuzz): `litmus --explain --stress`
# for MP, SB, LB, IRIW and WRC, and `fuzz --seed=3`, each under
# --engine=scalar (the reference interpretation of the compiled op stream)
# and --engine=auto (the compiled engine). The two outputs must match byte
# for byte.
#
# Inputs: GPUWMM_BIN (the gpuwmm binary).

if(NOT GPUWMM_BIN)
  message(FATAL_ERROR "need -DGPUWMM_BIN")
endif()

function(run_on_engine engine outvar)
  execute_process(COMMAND ${GPUWMM_BIN} ${ARGN} --engine=${engine}
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' --engine=${engine} failed (exit ${rv}):\n"
                        "${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

function(expect_engine_identity)
  run_on_engine(scalar scalar_out ${ARGN})
  run_on_engine(auto auto_out ${ARGN})
  if(scalar_out STREQUAL "")
    message(FATAL_ERROR "'${ARGN}' printed nothing")
  endif()
  if(NOT scalar_out STREQUAL auto_out)
    message(FATAL_ERROR "'${ARGN}' differs between engines\n"
                        "--- scalar:\n${scalar_out}\n--- auto:\n${auto_out}")
  endif()
endfunction()

foreach(test MP SB LB IRIW WRC)
  expect_engine_identity(litmus --test=${test} --explain --stress
                         --distance=128)
endforeach()
expect_engine_identity(fuzz --seed=3)
