# Byte-compare each table driver's windowed manifest with its golden.
#
#   cmake -DBENCH_DIR=<dir> -DSCRIPTS_DIR=<dir> -DWORK_DIR=<dir> -P manifest_goldens.cmake
#
# Each of table3..6 runs with --jobs 4 --obs --obs-window 10000000000 in
# WORK_DIR, and its MANIFEST_<driver>.json must equal its golden in
# SCRIPTS_DIR. Fails naming every driver whose manifest differs, each with
# the manifest_diff.py command that shows which metric and window moved.
set(goldens
    table3_metbench manifest_golden_v2.json
    table4_metbenchvar manifest_golden_table4_v2.json
    table5_btmz manifest_golden_table5_v2.json
    table6_siesta manifest_golden_table6_v2.json)
file(MAKE_DIRECTORY ${WORK_DIR})
set(failed "")
while(goldens)
  list(POP_FRONT goldens driver golden)
  set(manifest ${WORK_DIR}/MANIFEST_${driver}.json)
  file(REMOVE ${manifest})
  execute_process(COMMAND ${BENCH_DIR}/${driver} --jobs 4 --obs --obs-window 10000000000
                  WORKING_DIRECTORY ${WORK_DIR} OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message("${driver} exited ${rc}")
    list(APPEND failed ${driver})
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${SCRIPTS_DIR}/${golden} ${manifest}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message("${driver}: see which metric and window moved with\n"
            "  python3 ${SCRIPTS_DIR}/manifest_diff.py ${SCRIPTS_DIR}/${golden} ${manifest}")
    list(APPEND failed ${driver})
  endif()
endwhile()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "manifest differs from its golden: ${failed}")
endif()
message("all 4 manifests match their goldens")
