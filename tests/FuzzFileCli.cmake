# The `fuzz --file` round trip as a CTest script (cli.fuzz_file_refuzz):
# `fuzz --seed=1 --export-weak=DIR` writes each weak case as a .litmus
# file, and `fuzz --file` re-fuzzes one of them against its exhaustive SC
# set (exit 0, one summary line naming the case).
#
# Inputs: GPUWMM_BIN (the gpuwmm binary), WORK_DIR (scratch directory).

if(NOT GPUWMM_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DGPUWMM_BIN and -DWORK_DIR")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${GPUWMM_BIN} fuzz --seed=1 --export-weak=${WORK_DIR}
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "fuzz --export-weak failed (exit ${rv}):\n${err}")
endif()
file(GLOB exported ${WORK_DIR}/fuzz-*.litmus)
list(SORT exported)
list(LENGTH exported count)
if(count EQUAL 0)
  message(FATAL_ERROR "fuzz --seed=1 exported no weak case:\n${out}")
endif()
list(GET exported 0 case)
get_filename_component(name ${case} NAME_WE)

execute_process(COMMAND ${GPUWMM_BIN} fuzz --file=${case} --runs=60
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "fuzz --file=${case} failed (exit ${rv}):\n${err}")
endif()
if(NOT out MATCHES "^${name}: [0-9]+/60 non-SC outcomes \\([0-9]+ distinct, SC set [0-9]+\\)\n$")
  message(FATAL_ERROR "unexpected fuzz --file output:\n${out}")
endif()
