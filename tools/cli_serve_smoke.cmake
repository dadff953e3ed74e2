# ctest smoke check of the routing service daemon: starts sadp_route_serve
# on a Unix socket, drives load/route/edit/query/stats through the
# reference client, asserts the structured-error paths (malformed request,
# unknown session, queue-deadline timeout), exercises the strict numeric
# option parsing, and verifies a graceful shutdown with a metrics dump.
# Invoked as:
#   cmake -DSERVE=<path-to-sadp_route_serve> -DCLIENT=<service_client.py>
#         -DOUT_DIR=<scratch dir> -P cli_serve_smoke.cmake
if(NOT SERVE OR NOT CLIENT OR NOT OUT_DIR)
  message(FATAL_ERROR "pass -DSERVE=<binary> -DCLIENT=<client.py> -DOUT_DIR=<dir>")
endif()

find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "python3 not found; serve smoke skipped")
  return()
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(METRICS_FILE "${OUT_DIR}/serve_metrics.json")

# Strict numeric option parsing (shared parseStrict* helpers): trailing
# garbage and out-of-range values must be usage errors, not guesses.
foreach(badopt "--port;1x" "--port;70000" "--queue-depth;-1"
        "--session-cap;0x10")
  list(GET badopt 0 flag)
  list(GET badopt 1 value)
  execute_process(COMMAND "${SERVE}" ${flag} "${value}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${flag} ${value}' exited ${rc}, want usage error 2")
  endif()
endforeach()

# The protocol drive runs in one bash script so the daemon can live in the
# background; every step asserts its own expectation and the script is
# set -e, so the first broken invariant fails the test.
execute_process(
  COMMAND bash -e -c "
    sock='${OUT_DIR}/serve.sock'
    rm -f \"\$sock\"
    '${SERVE}' --socket \"\$sock\" --workers 2 --queue-depth 8 \
               --session-cap 2 --metrics '${METRICS_FILE}' &
    pid=\$!
    # A failed assertion must not orphan the daemon: it inherits this
    # test's output pipes and ctest would wait for them until timeout.
    trap 'kill \$pid 2>/dev/null || true' EXIT
    for i in \$(seq 100); do [ -S \"\$sock\" ] && break; sleep 0.1; done
    [ -S \"\$sock\" ] || { echo 'socket never appeared'; exit 1; }
    client() { '${PYTHON3}' '${CLIENT}' --socket \"\$sock\" \"\$@\"; }

    client req --json '{\"op\":\"load\",\"id\":1,\"session\":\"s\",\"nets\":40,\"width\":64,\"height\":64,\"seed\":3}' \
      | grep -q '\"ok\":true'
    client req --json '{\"op\":\"route\",\"id\":2,\"session\":\"s\"}' > '${OUT_DIR}/route.json'
    grep -q '\"design_fp\":' '${OUT_DIR}/route.json'
    client req --json '{\"op\":\"edit\",\"id\":3,\"session\":\"s\",\"kind\":\"move_pin\",\"net\":\"n5\",\"pin_index\":1,\"pin\":[33,20,0]}' \
      > '${OUT_DIR}/edit.json'
    grep -q '\"memo_hits\":' '${OUT_DIR}/edit.json'
    client req --json '{\"op\":\"query\",\"id\":4,\"session\":\"s\"}' | grep -q '\"routed\":true'
    client req --json '{\"op\":\"stats\",\"id\":5}' | grep -q '\"service.requests\"'

    # Structured error paths: each client call exits 0 only when the
    # server answers exactly the expected error code.
    client req --raw --json 'this is not json' --expect-error parse_error
    client req --raw --json '[1,2,3]' --expect-error bad_request
    client req --json '{\"op\":\"route\",\"session\":\"nope\"}' --expect-error unknown_session
    client req --json '{\"op\":\"frobnicate\"}' --expect-error unknown_op
    client req --json '{\"op\":\"edit\",\"session\":\"s\",\"kind\":\"move_pin\",\"net\":\"n5\",\"pin_index\":1,\"pin\":[999,0,0]}' \
      --expect-error bad_request
    # Timing/negotiation load options parse strictly: wrong JSON type or
    # out-of-range values answer bad_request without creating a session.
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"timing\":\"yes\"}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate\":1}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate\":true,\"negotiate_iters\":0}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate\":true,\"history_cost\":-0.5}' \
      --expect-error bad_request
    # history_cost is bounded before its float cast (1e300 overflowed to inf).
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate\":true,\"history_cost\":1e300}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate\":true,\"history_cost\":65537}' \
      --expect-error bad_request
    # Integer knobs are range-checked before narrowing (4294967297 is not
    # 1), and a bad threads value is rejected, not ignored.
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate_iters\":4294967297}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"negotiate_iters\":1025}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"threads\":0}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"threads\":4294967297}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"threads\":257}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"threads\":2.5}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"threads\":\"4\"}' \
      --expect-error bad_request
    # A present scale or seed of the wrong type or range is rejected, not
    # ignored or wrapped.
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"benchmark\":\"Test1\",\"scale\":\"0.5\"}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"seed\":-1}' \
      --expect-error bad_request
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"nets\":5,\"width\":16,\"height\":16,\"seed\":\"7\"}' \
      --expect-error bad_request
    # A paper benchmark fixes the design: explicit fields next to it are
    # refused, not ignored.
    client req --json '{\"op\":\"load\",\"session\":\"tb\",\"benchmark\":\"Test6\",\"seed\":-1,\"nets\":\"x\"}' \
      --expect-error bad_request
    # timeout_ms:0 expires while queued -> deterministic timeout error.
    client req --json '{\"op\":\"route\",\"session\":\"s\",\"timeout_ms\":0}' --expect-error timeout
    # Session cap 2: third load is rejected.
    client req --json '{\"op\":\"load\",\"session\":\"s2\",\"nets\":5,\"width\":16,\"height\":16}' | grep -q '\"ok\":true'
    client req --json '{\"op\":\"load\",\"session\":\"s3\",\"nets\":5,\"width\":16,\"height\":16}' --expect-error session_cap

    client req --json '{\"op\":\"shutdown\"}' | grep -q '\"ok\":true'
    wait \$pid
    echo \"server_exit=\$?\"
  "
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve smoke failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "server_exit=0")
  message(FATAL_ERROR "daemon did not exit cleanly:\n${out}\n${err}")
endif()

if(NOT EXISTS "${METRICS_FILE}")
  message(FATAL_ERROR "--metrics file was not written")
endif()
file(READ "${METRICS_FILE}" metrics)
foreach(counter service.requests service.routes service.edits
        service.cache_hit service.timeouts)
  if(NOT metrics MATCHES "\"${counter}\"")
    message(FATAL_ERROR "metrics report lacks counter ${counter}")
  endif()
endforeach()
message(STATUS "cli serve smoke OK")
