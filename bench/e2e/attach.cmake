# Attach the end-to-end benchmark to the repository's own build.
#
# bench/e2e/run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so CMake includes it right after the root's project() call. Defining the
# benchmark target there would be too early (the root has not yet set its
# compile options), so including bench/e2e/CMakeLists.txt is deferred to the
# end of the root CMakeLists.txt, in the root's directory scope: the target
# then gets every compile option and definition the library is built with,
# and adds none of its own. (CMake does not allow a deferred
# add_subdirectory, hence include.)
#
# Why not a project that add_subdirectory()s the root: the library's
# CMakeLists name their include directory as ${CMAKE_SOURCE_DIR}/src, which
# is only right when the repository root is the top-level source directory.
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  # Deferred arguments are expanded when the call runs, so pin the path now.
  set(VSTREAM_E2E_LIST "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
  cmake_language(DEFER CALL include "${VSTREAM_E2E_LIST}")
endif()
