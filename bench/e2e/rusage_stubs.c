/* wait4(2) for the benchmark: the exit status and the peak resident set
   of a finished child, which the OCaml Unix library does not expose. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, or minus the signal number; ru_maxrss in KiB) */
CAMLprim value e2e_wait4(value vpid)
{
  int status = 0, err = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;
  value res;

  caml_enter_blocking_section();
  do
    r = wait4(pid, &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  return res;
}
