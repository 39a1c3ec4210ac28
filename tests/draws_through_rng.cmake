# Every random draw of a run goes through src/common/rng.h, whose formulas the
# CommonRng tests pin to a stated reference. A file under src/ that mentions
# <random>, a std:: distribution, generate_canonical or a Mersenne Twister
# could draw around them, and no golden would notice until a standard library
# computed that draw differently. This fails naming each such file.
#
#   cmake -DSRC_DIR=<src> -P draws_through_rng.cmake
#
# Needs no python3.
set(banned "<random>|_distribution|generate_canonical|mt19937|mersenne_twister")

file(GLOB_RECURSE files RELATIVE ${SRC_DIR} ${SRC_DIR}/*)
list(FIND files "common/rng.h" rng)
if(rng EQUAL -1)
  message(FATAL_ERROR "${SRC_DIR}: no common/rng.h; is SRC_DIR the source tree?")
endif()

set(failed "")
foreach(f IN LISTS files)
  if(f STREQUAL "common/rng.h")
    continue()
  endif()
  file(READ ${SRC_DIR}/${f} text)
  string(REGEX MATCH "${banned}" hit "${text}")
  if(hit)
    message("src/${f} mentions ${hit}")
    list(APPEND failed src/${f})
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "draws outside src/common/rng.h: ${failed}")
endif()
list(LENGTH files n)
message("${n} files under src/: only common/rng.h draws")
