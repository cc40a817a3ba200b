# Runs `gpuwmm paper` for each artefact under --jobs=1 and --jobs=4 and
# checks that both exit 0 and print the same stdout bytes: the worker count
# may change only wall time (DESIGN.md Sec. 11), and the wall-clock
# figures go to stderr.
#
# Inputs: GPUWMM_BIN (the gpuwmm binary) and ARTEFACTS (a ;-separated list
# of selectors such as --table=5).

if(NOT GPUWMM_BIN OR NOT ARTEFACTS)
  message(FATAL_ERROR "need -DGPUWMM_BIN and -DARTEFACTS")
endif()

foreach(artefact IN LISTS ARTEFACTS)
  foreach(jobs 1 4)
    execute_process(COMMAND ${GPUWMM_BIN} paper ${artefact} --jobs=${jobs}
                    RESULT_VARIABLE rv OUTPUT_VARIABLE out_${jobs}
                    ERROR_VARIABLE err)
    if(NOT rv EQUAL 0)
      message(FATAL_ERROR "'paper ${artefact} --jobs=${jobs}' exited ${rv}\n"
                          "stderr:\n${err}")
    endif()
  endforeach()
  if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "'paper ${artefact}' stdout differs between "
                        "--jobs=1 and --jobs=4\n--- jobs=1:\n${out_1}\n"
                        "--- jobs=4:\n${out_4}")
  endif()
endforeach()
