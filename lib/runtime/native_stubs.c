/* dlopen/dlsym glue for the native walker's compiled row kernels.
 *
 * The compiled plan exports
 *   void tilec_row(double *la, long cur, const long *taps,
 *                  const long *j0, long len);
 * We hand it the Bigarray data pointer directly; taps and j0 are OCaml
 * int arrays (tagged words), so they are untagged into small C stack
 * buffers per call — both are bounded by the stencil's read count and
 * the space dimension, far below the limits here.
 */
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <dlfcn.h>
#include <string.h>

#define TILEC_MAX_WORDS 64

typedef void (*tilec_row_fn)(double *, long, const long *, const long *,
                             long);

CAMLprim value tilec_native_load(value vpath, value vsym)
{
  void *handle, *fn;
  char path[4096];
  char sym[256];
  size_t plen = caml_string_length(vpath);
  size_t slen = caml_string_length(vsym);
  if (plen >= sizeof(path) || slen >= sizeof(sym))
    caml_failwith("tilec_native_load: path too long");
  memcpy(path, String_val(vpath), plen); path[plen] = 0;
  memcpy(sym, String_val(vsym), slen); sym[slen] = 0;
  /* may release no lock: dlopen does not call back into OCaml */
  handle = dlopen(path, RTLD_NOW | RTLD_LOCAL);
  if (!handle) caml_failwith(dlerror());
  fn = dlsym(handle, sym);
  if (!fn) {
    dlclose(handle);
    caml_failwith("tilec_native_load: entry symbol not found");
  }
  /* the handle is deliberately leaked: compiled plans stay mapped for
     the life of the process (they are cached and tiny) */
  return caml_copy_nativeint((intnat)fn);
}

CAMLprim value tilec_native_row(value vfn, value vla, value vcur,
                                value vtaps, value vj0, value vlen)
{
  tilec_row_fn fn = (tilec_row_fn)Nativeint_val(vfn);
  double *la = (double *)Caml_ba_data_val(vla);
  long taps[TILEC_MAX_WORDS], j0[TILEC_MAX_WORDS];
  mlsize_t i, nt = Wosize_val(vtaps), nj = Wosize_val(vj0);
  if (nt > TILEC_MAX_WORDS || nj > TILEC_MAX_WORDS)
    caml_failwith("tilec_native_row: argument arrays too large");
  for (i = 0; i < nt; i++) taps[i] = Long_val(Field(vtaps, i));
  for (i = 0; i < nj; i++) j0[i] = Long_val(Field(vj0, i));
  fn(la, Long_val(vcur), taps, j0, Long_val(vlen));
  return Val_unit;
}

CAMLprim value tilec_native_row_bc(value *argv, int argn)
{
  (void)argn;
  return tilec_native_row(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5]);
}
