# Import check for the deterministic core (the core_imports ctest).
#
#   cmake -DNM=<nm> -DPROBE=<executable> -P check.cmake
#
# PROBE is linked with -Wl,--whole-archive hpcs_core, so it contains every
# core object: a core reference to a host-side symbol (exp::) is already a
# link error, and every libc/libstdc++ function the core can reach,
# directly, through a virtual hook, through a callback or from an
# instantiated template, is an undefined symbol of PROBE. This script lists
# those imports with `nm -C -u` and fails on the ones that read a clock, the
# environment, an entropy source, the process id or the CPU count, and on
# libstdc++'s out-of-line rehash policy, which filling any std::unordered_*
# container calls: their iteration order depends on the hash and bucket
# count, not on the simulation. Names are matched with any @VERSION suffix
# stripped, since some nm builds print none.
#
# It proves that no core object calls those functions. It does not see
# inline reads (a raw rdtsc, a syscall instruction), reads through a
# function pointer handed in at run time, or host state the core is given
# as data.
cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT PROBE)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DPROBE=<executable> -P check.cmake")
endif()

execute_process(COMMAND ${NM} -C -u ${PROBE}
                RESULT_VARIABLE nm_status
                OUTPUT_VARIABLE nm_out
                ERROR_VARIABLE nm_err)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "core_imports: '${NM} -C -u ${PROBE}' failed (${nm_status}): ${nm_err}")
endif()

set(deny_exact clock_gettime gettimeofday time getenv secure_getenv
               rand srand rand_r getpid)
set(imports 0)
set(forbidden "")
string(REGEX MATCHALL "[^\n]+" nm_lines "${nm_out}")
foreach(line IN LISTS nm_lines)
  if(NOT line MATCHES "^[ \t]*[A-Za-z][ \t]+(.+)$")
    continue()
  endif()
  string(REGEX REPLACE "@.*$" "" name "${CMAKE_MATCH_1}")
  math(EXPR imports "${imports} + 1")
  if(name IN_LIST deny_exact
     OR name MATCHES "clock::now\\(\\)$"
     OR name MATCHES "^std::random_device::"
     OR name MATCHES "hardware_concurrency\\(\\)$"
     OR name MATCHES "rand48$"
     OR name MATCHES "^std::__detail::_Prime_rehash_policy::")
    list(APPEND forbidden "${name}")
  endif()
endforeach()

if(imports EQUAL 0)
  message(FATAL_ERROR "core_imports: nm lists no imports for ${PROBE}; "
                      "cannot tell what the core links against")
endif()
if(forbidden)
  list(REMOVE_DUPLICATES forbidden)
  list(SORT forbidden)
  string(REPLACE ";" ", " forbidden_text "${forbidden}")
  message("core_imports: ${PROBE} imports ${imports} symbols")
  message("core_imports: forbidden imports: ${forbidden_text}")
  message("core_imports: to find the object that imports one: "
          "nm -A -C -u src/libhpcs_core.a | grep -F '<name>' (in the build dir)")
  message(FATAL_ERROR "core_imports: the deterministic core imports a clock, "
                      "environment, entropy, pid, CPU-count or hash-container "
                      "function")
endif()
message("core_imports: ${imports} imports, none forbidden")
