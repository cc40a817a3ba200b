# Smoke-tests the `gpuwmm hunt` CLI: runs a bounded hunt with an on-disk
# corpus and validates the JSON report with CMake's native string(JSON)
# parser (no Python/network dependency). With -DCHECK_GRID=ON it
# additionally re-runs the identical bounded hunt across a --jobs grid
# and requires the report, the corpus record log, the
# manifest and every .litmus artifact to be byte-identical — the hunt
# determinism acceptance criterion.
#
# Usage:
#   cmake -DGPUWMM_BIN=<path-to-gpuwmm> -DWORK_DIR=<scratch-dir>
#         [-DCHECK_GRID=ON] -P ValidateHuntJson.cmake

if(NOT GPUWMM_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DGPUWMM_BIN=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The bounded hunt pinned by the HuntPipelineTest goldens: every stage
# budget explicit so GPUWMM_SCALE cannot perturb the corpus.
set(HUNT_FLAGS --chip=titan --rounds=2 --programs=12 --runs=30
    --distance=64 --shrink-runs=120 --harden-runs=16 --stable-runs=150
    --verify-runs=80 --seed=9)

function(run_hunt OUT CORPUS)
  execute_process(
    COMMAND "${GPUWMM_BIN}" hunt ${HUNT_FLAGS} ${ARGN}
            "--corpus-dir=${CORPUS}" "--out=${OUT}"
    RESULT_VARIABLE RV ERROR_VARIABLE LOG)
  if(NOT RV EQUAL 0)
    message(FATAL_ERROR "gpuwmm hunt exited with ${RV}:\n${LOG}")
  endif()
endfunction()

set(REF_OUT "${WORK_DIR}/hunt.json")
set(REF_CORPUS "${WORK_DIR}/corpus")
run_hunt("${REF_OUT}" "${REF_CORPUS}" --jobs=2)

file(READ "${REF_OUT}" REPORT)

string(JSON SCHEMA ERROR_VARIABLE ERR GET "${REPORT}" schema)
if(NOT SCHEMA STREQUAL "gpuwmm-hunt-v1")
  message(FATAL_ERROR "bad or missing schema: ${SCHEMA} ${ERR}")
endif()
string(JSON SCHEMA_VERSION ERROR_VARIABLE ERR GET "${REPORT}" schema_version)
if(NOT SCHEMA_VERSION EQUAL 1)
  message(FATAL_ERROR "bad or missing schema_version: ${SCHEMA_VERSION} ${ERR}")
endif()
string(JSON TOOL_NAME ERROR_VARIABLE ERR GET "${REPORT}" tool name)
if(NOT TOOL_NAME STREQUAL "gpuwmm")
  message(FATAL_ERROR "bad or missing tool.name: ${TOOL_NAME} ${ERR}")
endif()
string(JSON CHIP GET "${REPORT}" chip)
string(JSON SEED GET "${REPORT}" seed)
if(NOT CHIP STREQUAL "titan" OR NOT SEED EQUAL 9)
  message(FATAL_ERROR "config not echoed: chip=${CHIP} seed=${SEED}")
endif()

# The pipeline mined something, the corpus is oracle-clean, and the entry
# list is exactly corpus_size long.
string(JSON FUZZED GET "${REPORT}" totals programs_fuzzed)
string(JSON WEAK GET "${REPORT}" totals weak_programs)
string(JSON CORPUS_SIZE GET "${REPORT}" totals corpus_size)
if(FUZZED EQUAL 0 OR WEAK EQUAL 0 OR CORPUS_SIZE EQUAL 0)
  message(FATAL_ERROR "empty hunt: fuzzed=${FUZZED} weak=${WEAK}"
                      " corpus=${CORPUS_SIZE}")
endif()
string(JSON CLEAN GET "${REPORT}" oracle clean)
if(NOT CLEAN STREQUAL "ON") # string(JSON) renders true as ON
  message(FATAL_ERROR "hardened corpus not oracle-clean: ${CLEAN}")
endif()
string(JSON ORACLE_WEAK GET "${REPORT}" oracle weak)
if(NOT ORACLE_WEAK EQUAL 0)
  message(FATAL_ERROR "${ORACLE_WEAK} hardened run(s) still weak")
endif()
string(JSON NAXIOMS LENGTH "${REPORT}" oracle axiom_violations)
if(NOT NAXIOMS EQUAL 8)
  message(FATAL_ERROR "expected 8 axiom keys, got ${NAXIOMS}")
endif()

# The CLI report carries the per-stage work counters; the pinned hunt
# shrinks, hardens and verifies, so every stage ran litmus programs.
foreach(STAGE shrink harden verify)
  string(JSON RUNS ERROR_VARIABLE ERR GET "${REPORT}" totals litmus_runs
         ${STAGE})
  if(ERR OR RUNS EQUAL 0)
    message(FATAL_ERROR "totals.litmus_runs.${STAGE}: '${RUNS}' ${ERR}")
  endif()
endforeach()

string(JSON NENTRIES LENGTH "${REPORT}" entries)
if(NOT NENTRIES EQUAL ${CORPUS_SIZE})
  message(FATAL_ERROR "entries ${NENTRIES} != corpus_size ${CORPUS_SIZE}")
endif()
math(EXPR LAST "${NENTRIES} - 1")
foreach(I RANGE ${LAST})
  string(JSON EORIG GET "${REPORT}" entries ${I} original_ops)
  string(JSON ERED GET "${REPORT}" entries ${I} reduced_ops)
  string(JSON EVWEAK GET "${REPORT}" entries ${I} verify_weak)
  string(JSON EVRUNS GET "${REPORT}" entries ${I} verify_runs)
  string(JSON ESITES GET "${REPORT}" entries ${I} fence_sites)
  string(JSON EFENCES GET "${REPORT}" entries ${I} fences)
  string(JSON ENAME GET "${REPORT}" entries ${I} name)
  if(ERED GREATER EORIG)
    message(FATAL_ERROR "entry ${I}: reduced_ops ${ERED} > original ${EORIG}")
  endif()
  if(NOT EVWEAK EQUAL 0 OR EVRUNS EQUAL 0)
    message(FATAL_ERROR "entry ${I}: verify ${EVWEAK}/${EVRUNS} weak")
  endif()
  if(EFENCES GREATER ESITES)
    message(FATAL_ERROR "entry ${I}: fences ${EFENCES} > sites ${ESITES}")
  endif()
  # Every entry's replayable artifact exists in the corpus directory.
  if(NOT EXISTS "${REF_CORPUS}/${ENAME}.litmus")
    message(FATAL_ERROR "entry ${I}: missing artifact ${ENAME}.litmus")
  endif()
endforeach()

message(STATUS "hunt JSON valid: corpus of ${CORPUS_SIZE} from ${WEAK}"
               " weak programs, oracle clean")

if(NOT CHECK_GRID)
  return()
endif()

# --- The determinism grid ---------------------------------------------------
# The identical bounded hunt at every --jobs value must reproduce the
# reference corpus and report bit for bit.
file(READ "${REF_CORPUS}/manifest.json" REF_MANIFEST)
file(READ "${REF_CORPUS}/corpus-0000.jsonl" REF_LOG)
file(GLOB REF_ARTIFACTS RELATIVE "${REF_CORPUS}" "${REF_CORPUS}/*.litmus")

foreach(JOBS 1 8)
  set(TAG "j${JOBS}")
  set(OUT "${WORK_DIR}/hunt-${TAG}.json")
  set(CORPUS "${WORK_DIR}/corpus-${TAG}")
  run_hunt("${OUT}" "${CORPUS}" --jobs=${JOBS})
  file(READ "${OUT}" GOT)
  if(NOT GOT STREQUAL REPORT)
    message(FATAL_ERROR "${TAG}: report diverged from the reference")
  endif()
  file(READ "${CORPUS}/manifest.json" GOT_MANIFEST)
  if(NOT GOT_MANIFEST STREQUAL REF_MANIFEST)
    message(FATAL_ERROR "${TAG}: manifest diverged")
  endif()
  file(READ "${CORPUS}/corpus-0000.jsonl" GOT_LOG)
  if(NOT GOT_LOG STREQUAL REF_LOG)
    message(FATAL_ERROR "${TAG}: corpus record log diverged")
  endif()
  foreach(ARTIFACT IN LISTS REF_ARTIFACTS)
    file(READ "${REF_CORPUS}/${ARTIFACT}" WANT_BYTES)
    file(READ "${CORPUS}/${ARTIFACT}" GOT_BYTES)
    if(NOT GOT_BYTES STREQUAL WANT_BYTES)
      message(FATAL_ERROR "${TAG}: artifact ${ARTIFACT} diverged")
    endif()
  endforeach()
endforeach()

message(STATUS "hunt determinism grid: report + corpus byte-identical"
               " across jobs")
