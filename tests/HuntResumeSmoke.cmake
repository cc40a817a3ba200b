# End-to-end crash/resume smoke for the hunt corpus, run as a CTest script
# (cli.hunt_resume), as CampaignResumeSmoke.cmake is for the campaign
# fabric:
#
#   1. Run the bounded hunt uninterrupted into a fresh corpus: the
#      reference.
#   2. Run it into another corpus with GPUWMM_HUNT_CRASH_AFTER=N: the hunt
#      must SIGKILL itself after N durable appends (nonzero exit).
#   3. `hunt --resume` must complete that corpus (exit 0).
#   4. The resumed corpus must hold as many entries as the reference, and
#      its hunt-*.litmus artifacts must equal the reference's byte for
#      byte.
#
# Inputs: GPUWMM_BIN (the gpuwmm binary), WORK_DIR (scratch; wiped) and
# CRASH_AFTER (a list of N, one crash/resume cycle each).

if(NOT GPUWMM_BIN OR NOT WORK_DIR OR NOT CRASH_AFTER)
  message(FATAL_ERROR "need -DGPUWMM_BIN, -DWORK_DIR, -DCRASH_AFTER")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# ValidateHuntJson.cmake's pinned hunt: 5 entries and 2 round markers, so
# the hook can fire inside either round.
set(HUNT_FLAGS --chip=titan --rounds=2 --programs=12 --runs=30
    --distance=64 --shrink-runs=120 --harden-runs=16 --stable-runs=150
    --verify-runs=80 --seed=9)

function(run_hunt_ok what out corpus)
  execute_process(
    COMMAND "${GPUWMM_BIN}" hunt ${HUNT_FLAGS} "--corpus-dir=${corpus}"
            "--out=${out}" ${ARGN}
    RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${what} exited ${rv}:\n${err}")
  endif()
endfunction()

# The report's corpus size and the corpus directory's artifacts.
function(read_corpus out corpus size_var artifacts_var)
  file(READ "${out}" report)
  string(JSON size GET "${report}" totals corpus_size)
  file(GLOB artifacts RELATIVE "${corpus}" "${corpus}/hunt-*.litmus")
  list(SORT artifacts)
  set(${size_var} ${size} PARENT_SCOPE)
  set(${artifacts_var} ${artifacts} PARENT_SCOPE)
endfunction()

# 1. The uninterrupted reference corpus.
set(ref "${WORK_DIR}/ref")
run_hunt_ok("reference hunt" "${ref}.json" "${ref}")
read_corpus("${ref}.json" "${ref}" ref_size ref_artifacts)
if(ref_size EQUAL 0)
  message(FATAL_ERROR "the reference hunt mined an empty corpus")
endif()

foreach(n IN LISTS CRASH_AFTER)
  set(corpus "${WORK_DIR}/crash-${n}")

  # 2. Crash mid-hunt: the hook SIGKILLs the process, so the exit code
  # must be nonzero.
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env GPUWMM_HUNT_CRASH_AFTER=${n}
            "${GPUWMM_BIN}" hunt ${HUNT_FLAGS} "--corpus-dir=${corpus}"
            "--out=${corpus}-crashed.json"
    RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(rv EQUAL 0)
    message(FATAL_ERROR "crash after ${n}: the hook did not fire:\n${err}")
  endif()

  # 3. Resume completes the corpus (the hook is scoped to the crashed run
  # by -E env).
  run_hunt_ok("crash after ${n}: resume" "${corpus}.json" "${corpus}"
              --resume)

  # 4. Same entries, same artifact bytes.
  read_corpus("${corpus}.json" "${corpus}" size artifacts)
  if(NOT size EQUAL ref_size)
    message(FATAL_ERROR "crash after ${n}: resumed corpus holds ${size} "
                        "entries, the reference ${ref_size}")
  endif()
  if(NOT artifacts STREQUAL ref_artifacts)
    message(FATAL_ERROR "crash after ${n}: artifacts differ: "
                        "'${artifacts}' vs '${ref_artifacts}'")
  endif()
  foreach(artifact IN LISTS ref_artifacts)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${ref}/${artifact}" "${corpus}/${artifact}"
                    RESULT_VARIABLE rv)
    if(NOT rv EQUAL 0)
      message(FATAL_ERROR "crash after ${n}: ${artifact} differs from the "
                          "reference")
    endif()
  endforeach()
endforeach()

message(STATUS "hunt resume smoke OK: crash -> resume -> identical corpus "
               "(${ref_size} entries; crash after ${CRASH_AFTER} appends)")
