# Runs TOOL with ARGS and passes only when it exits 1 with EXPECT on
# stderr -- a refused command line, not a crash (an uncaught exception
# would end in SIGABRT) and not a silent success.
#
#   cmake -DTOOL=<binary> -DARGS=<arg;...> -DEXPECT=<text> -P bad_flag.cmake
execute_process(COMMAND ${TOOL} ${ARGS}
                INPUT_FILE /dev/null
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${code}, expected 1\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks '${EXPECT}'\n${err}")
endif()
