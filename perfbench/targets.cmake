# The benchmark harness target, defined in the root directory's scope so it
# compiles with exactly the root's compile options (ISA floor,
# -ffp-contract=off) and links the same libraries as the repo's own tools.
add_executable(eecs_perfbench "${CMAKE_CURRENT_LIST_DIR}/eecs_perfbench.cpp")
target_include_directories(eecs_perfbench PRIVATE "${CMAKE_SOURCE_DIR}/bench")
target_link_libraries(eecs_perfbench PRIVATE eecs_core)
