# The benchmark's build file. Passed as CMAKE_PROJECT_eecs_INCLUDE, CMake
# includes it right after the root project() call; it defers the harness
# target to the end of the root CMakeLists.txt, once every library exists,
# without editing any file of the repository:
#
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_eecs_INCLUDE=$PWD/perfbench/project_hook.cmake
#   cmake --build .bench_build/perfbench --target eecs_perfbench
#
# perfbench/run.py does both.
# Deferred arguments are evaluated at call time, so pin the directory now.
set(EECS_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${EECS_PERFBENCH_DIR}/targets.cmake")
