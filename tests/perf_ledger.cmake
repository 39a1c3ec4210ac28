# The performance ledger's newest row must carry the Table VI Baseline work
# counts of the checked-in golden manifest.
#
#   cmake -DLEDGER=<docs/perf_ledger.md> -DGOLDEN=<manifest_golden_table6_v2.json> \
#         -P perf_ledger.cmake
#
# The ledger is the markdown table whose header's first cell is "PR"; its
# newest row is the last one. A change that moves a work count regenerates
# the golden, and this check then fails until the ledger gains a row with
# the new counts. It fails naming every count that differs. Needs no python3.
set(counts tp.sched_switch tp.sched_wake tp.sched_migrate kern.ticks kern.ticks_replayed
    sim.events_executed sim.eq_scheduled sim.eq_resched_inplace sim.eq_resched_pending)

# Ledger: the header row and the last data row, each as a list of cells.
file(STRINGS ${LEDGER} lines REGEX "^\\|")
set(header "")
set(newest "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE "^\\| *(.*[^ ]) *\\|$" "\\1" body "${line}")
  string(REGEX REPLACE " *\\| *" ";" cells "${body}")
  list(GET cells 0 first)
  if(first STREQUAL "PR")
    set(header "${cells}")
  elseif(header AND first MATCHES "^[0-9]+$")
    set(newest "${cells}")
  endif()
endforeach()
if(NOT newest)
  message(FATAL_ERROR "${LEDGER}: no ledger table (a header row starting with | PR |) with a row")
endif()
list(GET newest 0 pr)

# Golden: the counters of the Baseline run, which ends where its windows start.
file(READ ${GOLDEN} golden)
string(FIND "${golden}" "\"name\": \"Baseline\"" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${GOLDEN}: no Baseline run")
endif()
string(SUBSTRING "${golden}" ${start} -1 baseline)
string(FIND "${baseline}" "\"windows\"" end)
string(SUBSTRING "${baseline}" 0 ${end} baseline)

set(failed "")
foreach(name IN LISTS counts)
  list(FIND header "${name}" idx)
  if(idx EQUAL -1)
    message("ledger has no ${name} column")
    list(APPEND failed ${name})
    continue()
  endif()
  list(GET newest ${idx} have)
  string(REPLACE "." "\\." re "${name}")
  if(NOT baseline MATCHES "\"name\": \"${re}\", \"kind\": \"counter\", \"count\": ([0-9]+)")
    message("golden Baseline run has no ${name} counter")
    list(APPEND failed ${name})
    continue()
  endif()
  if(NOT have STREQUAL CMAKE_MATCH_1)
    message("${name}: ledger row PR ${pr} has ${have}, the golden Baseline run ${CMAKE_MATCH_1}")
    list(APPEND failed ${name})
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "perf ledger's newest row (PR ${pr}) differs from the table6 golden: ${failed}")
endif()
message("perf ledger row PR ${pr} matches the table6 golden's Baseline counts")
