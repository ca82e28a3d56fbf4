/* Process-level calls the OCaml Unix library does not offer. */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/resource.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* Peak resident set of the largest waited-for child process, in KiB
   (Linux reports ru_maxrss in kilobytes). */
value e2e_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0)
    return caml_copy_double(0.0);
  return caml_copy_double((double)ru.ru_maxrss);
}

/* Restrict this process, and the children it starts from now on, to
   the CPU it is running on.  Returns that CPU, or -1 when it could not
   pin. */
value e2e_pin_to_current_cpu(value unit)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0)
    return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  return Val_int(cpu);
}
