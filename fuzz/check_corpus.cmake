# Seed freshness: regenerates the fuzz seed corpora into OUT and
# byte-compares every seed with the checked-in CORPUS. Fails when a seed
# is stale (an on-disk format changed without re-running
# fuzz_make_corpus), missing, or extra, or when the writers stopped
# being deterministic.
#
#   cmake -DMAKE_CORPUS=build/fuzz_make_corpus -DCORPUS=fuzz/corpus \
#         -DOUT=build/fuzz_corpus_fresh -P fuzz/check_corpus.cmake

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${MAKE_CORPUS}" "${OUT}"
                RESULT_VARIABLE made OUTPUT_QUIET)
if(NOT made EQUAL 0)
  message(FATAL_ERROR "fuzz_make_corpus failed: ${made}")
endif()

file(GLOB_RECURSE fresh RELATIVE "${OUT}" "${OUT}/*")
file(GLOB_RECURSE committed RELATIVE "${CORPUS}" "${CORPUS}/*")
list(SORT fresh)
list(SORT committed)
if(NOT fresh STREQUAL committed)
  message(FATAL_ERROR "seed sets differ\n  generated: ${fresh}\n"
                      "  checked in: ${committed}")
endif()

foreach(seed IN LISTS fresh)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/${seed}" "${CORPUS}/${seed}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND stale "${seed}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "stale seeds (regenerate from the repo root with "
                      "fuzz_make_corpus fuzz/corpus): ${stale}")
endif()
list(LENGTH fresh count)
message(STATUS "all ${count} seeds match their regeneration")
