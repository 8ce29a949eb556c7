# Guards the rule of common/simd.hpp that a wide pack never crosses an
# out-of-line call: baseline code that calls an 8- or 16-lane pack member (or
# a function instantiated for a wide ISA tag) passes vectors across
# mismatched ABIs, and may run an ISA the host lacks. Disassembles each
# binary and fails on any call, or tail jump, to such a symbol.
#
#   cmake -DOBJDUMP=objdump -DBINARIES="bin1;bin2" -DOUT_DIR=dir -P simd_tier_calls.cmake
set(wide "F32x8|F64x4|U32x8|F32x16|F64x8|U32x16|IsaNative256|IsaNative512")
set(failed 0)
foreach(binary IN LISTS BINARIES)
  get_filename_component(name "${binary}" NAME)
  set(listing "${OUT_DIR}/${name}.tier_calls.s")
  execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${binary}"
                  OUTPUT_FILE "${listing}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d failed on ${binary} (${rc})")
  endif()
  file(STRINGS "${listing}" hits REGEX "(call|jmp)[^<]*<.*(${wide})")
  file(REMOVE "${listing}")
  set(count 0)
  foreach(hit IN LISTS hits)
    # A jump to <function+0x..> stays inside that function; only a jump to a
    # function's entry is a tail call.
    if(hit MATCHES "jmp" AND hit MATCHES "\\+0x[0-9a-f]+>")
      continue()
    endif()
    math(EXPR count "${count} + 1")
    if(count LESS_EQUAL 10)
      message("${name}: ${hit}")
    endif()
  endforeach()
  if(count GREATER 0)
    message("${name}: ${count} out-of-line call(s) to a wide pack")
    set(failed 1)
  else()
    message("${name}: no out-of-line call to a wide pack")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "a wide pack crosses an out-of-line call: dispatch inside each parallel "
                      "task, not around the loop (common/simd.hpp)")
endif()
