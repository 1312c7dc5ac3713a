# Benchmark binaries. One per paper table/figure plus microbenchmarks.
# Included from the top-level CMakeLists so the binaries land in a clean
# ${CMAKE_BINARY_DIR}/bench directory.

# The build type and the commit the tree was configured at, stamped into
# every BENCH_*.json by bench_util.h's JsonWriter ("unknown" outside git).
execute_process(COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  OUTPUT_VARIABLE IMON_GIT_COMMIT OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT IMON_GIT_COMMIT)
  set(IMON_GIT_COMMIT unknown)
endif()
add_library(imon_bench_env INTERFACE)
target_compile_definitions(imon_bench_env INTERFACE
  IMON_BUILD_TYPE="${CMAKE_BUILD_TYPE}" IMON_GIT_COMMIT="${IMON_GIT_COMMIT}")

function(imon_add_bench name)
  add_executable(${name} ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${name} PRIVATE imon_bench_env
    imon_workload imon_analyzer imon_daemon imon_ima imon_engine)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

imon_add_bench(fig4_overhead bench/fig4_overhead.cc)
imon_add_bench(fig5_share bench/fig5_share.cc)
imon_add_bench(fig6_costs bench/fig6_costs.cc)
imon_add_bench(fig7_analyzer bench/fig7_analyzer.cc)
imon_add_bench(fig8_locks bench/fig8_locks.cc)
imon_add_bench(micro_daemon bench/micro_daemon.cc)

imon_add_bench(micro_monitor bench/micro_monitor.cc)
target_link_libraries(micro_monitor PRIVATE benchmark::benchmark)
imon_add_bench(micro_engine bench/micro_engine.cc)
target_link_libraries(micro_engine PRIVATE benchmark::benchmark)
imon_add_bench(ablation_plan_cache bench/ablation_plan_cache.cc)
imon_add_bench(micro_concurrent bench/micro_concurrent.cc)
imon_add_bench(micro_exec_batch bench/micro_exec_batch.cc)
imon_add_bench(micro_parallel_scan bench/micro_parallel_scan.cc)
imon_add_bench(micro_parallel_join bench/micro_parallel_join.cc)
imon_add_bench(observability_overhead bench/observability_overhead.cc)
imon_add_bench(micro_tuner bench/micro_tuner.cc)
target_link_libraries(micro_tuner PRIVATE imon_tuner)
imon_add_bench(micro_server bench/micro_server.cc)
target_link_libraries(micro_server PRIVATE imon_server imon_testing)
imon_add_bench(micro_compression bench/micro_compression.cc)
imon_add_bench(micro_history bench/micro_history.cc)
