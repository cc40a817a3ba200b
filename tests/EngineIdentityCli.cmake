# CLI engine identity, run as CTest scripts: the same command under
# --engine=scalar (the reference engine stepping the compiled op stream)
# and the compiled engine must print the same bytes.
#
#  * SUITE=litmus_fuzz (cli.engine_identity_litmus_fuzz): `litmus
#    --explain --stress` for MP, SB, LB, IRIW and WRC, and `fuzz
#    --seed=3`, under --engine=scalar and --engine=auto.
#  * SUITE=apps: a titan campaign over all ten apps under no-str- and
#    sys-str+, under --engine=auto and --engine=scalar, unchecked
#    (cli.engine_identity_apps) or, with ORACLE=all, with every run
#    streamed through the oracle (cli.engine_identity_apps_oracle). The
#    reports must match once each cell's "engine" field is masked.
#    tpo-tm's sys-str+ cell holds livelocked runs, which the compiled
#    engine ends early as provable timeouts when unchecked and runs to
#    the budget when checked; the reference engine always runs them to
#    the budget.
#
# Inputs: GPUWMM_BIN (the gpuwmm binary), SUITE, and for SUITE=apps
# WORK_DIR (a scratch directory for the reports) and optionally ORACLE
# (the --oracle value).

if(NOT GPUWMM_BIN OR NOT SUITE)
  message(FATAL_ERROR "need -DGPUWMM_BIN and -DSUITE")
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

# The campaign report of one engine with every "engine" field masked.
function(masked_campaign engine outvar)
  set(file ${WORK_DIR}/campaign-${engine}.json)
  run_on_engine(${engine} ignored ${ARGN} --out=${file})
  file(READ ${file} json)
  string(REGEX REPLACE "\"engine\": \"[a-z]*\"" "\"engine\": \"X\""
         json "${json}")
  set(${outvar} "${json}" PARENT_SCOPE)
endfunction()

if(SUITE STREQUAL "litmus_fuzz")
  foreach(test MP SB LB IRIW WRC)
    expect_engine_identity(litmus --test=${test} --explain --stress
                           --distance=128)
  endforeach()
  expect_engine_identity(fuzz --seed=3)
elseif(SUITE STREQUAL "apps")
  if(NOT WORK_DIR)
    message(FATAL_ERROR "need -DWORK_DIR")
  endif()
  file(MAKE_DIRECTORY ${WORK_DIR})
  set(oracle "")
  if(ORACLE)
    set(oracle --oracle=${ORACLE})
  endif()
  set(grid campaign --chips=titan --envs=no-str-,sys-str+
      --runs=20 --seed=42 --jobs=2 ${oracle})
  masked_campaign(auto auto_json ${grid})
  masked_campaign(scalar scalar_json ${grid})
  if(NOT auto_json MATCHES "\"cells\"")
    message(FATAL_ERROR "'${grid}' wrote no campaign report")
  endif()
  if(NOT auto_json STREQUAL scalar_json)
    message(FATAL_ERROR "'${grid}' differs between engines\n"
                        "--- auto:\n${auto_json}\n"
                        "--- scalar:\n${scalar_json}")
  endif()
else()
  message(FATAL_ERROR "unknown SUITE '${SUITE}'")
endif()
