# ctest smoke check: sadp_route_cli --batch/--jobs routes two designs
# concurrently and every artifact (mask planes, CSV rows) comes out
# byte-identical to running the same jobs one at a time.
# Invoked as:
#   cmake -DCLI=<path-to-sadp_route_cli> -DOUT_DIR=<scratch dir>
#         -P cli_batch_smoke.cmake
if(NOT CLI OR NOT OUT_DIR)
  message(FATAL_ERROR "pass -DCLI=<binary> and -DOUT_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Two demo designs, each with mask + CSV output. Exit 3 (residual physical
# conflicts) is a legal routing outcome for demo instances.
set(JOB_A "--seed-demo 30 --width 100 --height 100 --threads 2")
set(JOB_B "--seed-demo 24 --width 90 --height 90 --threads 2")

foreach(job A B)
  separate_arguments(argv UNIX_COMMAND
      "${JOB_${job}} --masks ${OUT_DIR}/serial${job}_ --csv ${OUT_DIR}/serial${job}.csv")
  execute_process(COMMAND "${CLI}" ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
    message(FATAL_ERROR "serial job ${job} exited ${rc}\n${out}\n${err}")
  endif()
endforeach()

file(WRITE "${OUT_DIR}/jobs.list"
  "# batch smoke: same designs as the serial reference runs\n"
  "${JOB_A} --masks ${OUT_DIR}/batchA_ --csv ${OUT_DIR}/batchA.csv\n"
  "\n"
  "${JOB_B} --masks ${OUT_DIR}/batchB_ --csv ${OUT_DIR}/batchB.csv\n")
execute_process(COMMAND "${CLI}" --batch "${OUT_DIR}/jobs.list" --jobs 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
  message(FATAL_ERROR "batch run exited ${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "=== job 0" OR NOT out MATCHES "=== job 1")
  message(FATAL_ERROR "batch stdout lacks per-job summaries:\n${out}")
endif()

# Every serial artifact must exist and match its batch twin byte for byte.
file(GLOB serial_files RELATIVE "${OUT_DIR}" "${OUT_DIR}/serial*")
list(LENGTH serial_files nfiles)
if(nfiles LESS 4)  # >=1 mask plane file + 1 csv per job
  message(FATAL_ERROR "expected serial artifacts, found: ${serial_files}")
endif()
foreach(f ${serial_files})
  string(REPLACE "serial" "batch" twin "${f}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${OUT_DIR}/${f}" "${OUT_DIR}/${twin}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "batch artifact ${twin} differs from serial ${f}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (${nfiles} artifacts byte-identical)")

# Malformed --jobs values must be rejected up front with the usage text --
# zero, negative, and the atoi-style silent truncation ("2x" read as 2).
foreach(bad "0" "-2" "2x")
  execute_process(COMMAND "${CLI}" --batch "${OUT_DIR}/jobs.list" --jobs "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--jobs ${bad} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "--jobs ${bad} stderr lacks usage text:\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (bad --jobs values rejected)")

# The timing/negotiation knobs parse strictly too: --negotiate-iters wants a
# positive integer, --history-cost a nonnegative decimal with no trailing
# junk (strtod would silently read "1.5x" as 1.5).
foreach(pair "--negotiate-iters;0" "--negotiate-iters;3x"
             "--history-cost;-1" "--history-cost;1.5x"
             "--history-cost;nan")
  list(GET pair 0 flag)
  list(GET pair 1 bad)
  execute_process(COMMAND "${CLI}" --negotiate "${flag}" "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${bad} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag} ${bad} stderr lacks usage text:\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (bad timing option values rejected)")

# Design-size options share the service `load` bounds: a size the grid
# constructor would reject (--layers 0 once aborted with exit 134) or one
# past the bounds is a usage error up front.
foreach(pair "--layers;0" "--layers;-2" "--layers;17" "--width;0"
             "--width;7" "--width;2049" "--height;-1" "--height;99999"
             "--seed-demo;0" "--seed-demo;100001")
  list(GET pair 0 flag)
  list(GET pair 1 bad)
  set(argv --seed-demo 10 --width 20 --height 20 --layers 3)
  list(APPEND argv "${flag}" "${bad}")
  execute_process(COMMAND "${CLI}" ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${bad} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag} ${bad} stderr lacks usage text:\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (out-of-range design sizes rejected)")
