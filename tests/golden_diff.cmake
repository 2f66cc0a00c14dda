# Accuracy golden check, run by ctest as accuracy_golden_test:
#   cmake -DBENCH_DIR=<dir> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -P golden_diff.cmake
# Every GOLDEN_DIR/<bench>.txt names a deterministic bench binary in
# BENCH_DIR; its stdout must match the file byte for byte. To accept an
# intended accuracy change, rerun the bench and overwrite its golden file.
file(GLOB goldens "${GOLDEN_DIR}/*.txt")
if(NOT goldens)
  message(FATAL_ERROR "no golden files in ${GOLDEN_DIR}")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")
find_program(DIFF_TOOL diff)
set(failed "")
foreach(golden ${goldens})
  get_filename_component(name "${golden}" NAME_WE)
  set(out "${OUT_DIR}/${name}.txt")
  execute_process(COMMAND "${BENCH_DIR}/${name}" OUTPUT_FILE "${out}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${name} (exit ${rc})")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}"
                          "${golden}"
                  RESULT_VARIABLE differs)
  if(differs)
    list(APPEND failed "${name} (output differs from ${golden})")
    if(DIFF_TOOL)
      execute_process(COMMAND "${DIFF_TOOL}" -u "${golden}" "${out}")
    endif()
  else()
    message(STATUS "${name}: matches golden")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "accuracy golden mismatch: ${failed}")
endif()
