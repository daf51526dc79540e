# ctest helper for the bench harness, run as `cmake -P` (see
# bench/CMakeLists.txt): DRIVER must refuse ARGS (space-separated) by
# exiting 1 with "<driver name>: EXPECT" on stderr.
get_filename_component(name "${DRIVER}" NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRIVER}" ${args} RESULT_VARIABLE rc ERROR_VARIABLE err)
string(FIND "${err}" "${name}: ${EXPECT}" at)
if(NOT rc EQUAL 1 OR NOT at EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS}: expected exit 1 and '${name}: ${EXPECT}', "
                      "got exit '${rc}' and '${err}'")
endif()
