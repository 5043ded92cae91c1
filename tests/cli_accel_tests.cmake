# Read by ctest through the TEST_INCLUDE_FILES property (see
# CMakeLists.txt), after tbstc is built: defines one
# Cli.RunRejectsUntileableLayer.<accel> test per name on the
# `accelerators:` line of `tbstc help`, which accelSpecs() generates,
# so a new accelerator row is checked with no edit here. A layer that
# does not tile into blocks is a usage error (exit 2) named at parse
# time, on every accelerator, rather than an internal failure (exit 1)
# deep in the profile build.
#
# Inputs: TBSTC_CLI (the tbstc binary), CLI_EXIT (cli_exit.sh).
execute_process(COMMAND "${TBSTC_CLI}" help
    OUTPUT_VARIABLE help RESULT_VARIABLE rc)
string(REGEX MATCH "accelerators:([^\n]*)" line "${help}")
separate_arguments(accels UNIX_COMMAND "${CMAKE_MATCH_1}")
if(rc EQUAL 0 AND accels)
    foreach(accel IN LISTS accels)
        add_test(Cli.RunRejectsUntileableLayer.${accel}
            sh "${CLI_EXIT}" 2 "does not tile into 8x8 blocks"
            "${TBSTC_CLI}" run --accel ${accel} --layer 100x100x1)
    endforeach()
else()
    # A missing binary or listing fails a test instead of silently
    # defining none.
    add_test(Cli.RunRejectsUntileableLayer.listing
        sh -c "echo 'tbstc help lists no accelerators'; exit 1")
endif()
