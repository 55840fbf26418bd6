/*
 * A SIGPROF stack sampler for frame-pointer builds, loaded with LD_PRELOAD.
 *
 * On load it arms ITIMER_PROF at PROF_HZ (default 1000; the kernel may
 * tick slower) and, on every tick, records the interrupted program counter
 * and the return addresses found by walking the frame-pointer chain of the
 * main thread's stack. At exit it writes one line per sample (hex
 * addresses, innermost first) to PROF_OUT (default prof.samples) and a
 * copy of /proc/self/maps to PROF_OUT.maps, which symbolize.py reads.
 *
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 * Only x86_64 and aarch64 Linux are supported.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 96
#define MAX_SAMPLES 60000

/* samples[i * (MAX_DEPTH + 1)] holds the depth, then the frames. */
static uintptr_t *samples;
static volatile sig_atomic_t n_samples;
static uintptr_t stack_lo, stack_hi;

static void on_tick(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    if (n_samples >= MAX_SAMPLES) {
        return;
    }
    ucontext_t *uc = uctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
#error "unsupported architecture"
#endif
    uintptr_t *row = samples + (size_t)n_samples * (MAX_DEPTH + 1);
    size_t depth = 0;
    row[1 + depth++] = pc;
    /* Each frame holds the caller's frame pointer, then the return
     * address. Stop at the first pointer off the stack or not above the
     * last one: a frame built without a frame pointer ends the walk. */
    while (depth < MAX_DEPTH && fp >= stack_lo && fp + 2 * sizeof(uintptr_t) <= stack_hi &&
           fp % sizeof(uintptr_t) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0) {
            break;
        }
        row[1 + depth++] = ret;
        if (next <= fp) {
            break;
        }
        fp = next;
    }
    row[0] = depth;
    n_samples = n_samples + 1;
}

/* The main thread's stack, from the [stack] line of /proc/self/maps. */
static void find_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        if (strstr(line, "[stack]")) {
            unsigned long lo, hi;
            if (sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
                stack_lo = lo;
                stack_hi = hi;
            }
        }
    }
    if (maps) {
        fclose(maps);
    }
}

static const char *out_path(void) {
    const char *out = getenv("PROF_OUT");
    return out && *out ? out : "prof.samples";
}

__attribute__((constructor)) static void start(void) {
    size_t bytes = (size_t)MAX_SAMPLES * (MAX_DEPTH + 1) * sizeof(uintptr_t);
    samples = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_env = getenv("PROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz <= 0 || hz > 10000) {
        hz = 1000;
    }
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / hz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
    if (!samples) {
        return;
    }
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = out_path();
    FILE *f = fopen(out, "w");
    if (!f) {
        return;
    }
    for (sig_atomic_t i = 0; i < n_samples; i++) {
        uintptr_t *row = samples + (size_t)i * (MAX_DEPTH + 1);
        for (uintptr_t d = 0; d < row[0]; d++) {
            fprintf(f, d ? " %lx" : "%lx", (unsigned long)row[1 + d]);
        }
        fputc('\n', f);
    }
    fclose(f);
    char maps_out[4096];
    snprintf(maps_out, sizeof maps_out, "%s.maps", out);
    FILE *src = fopen("/proc/self/maps", "r");
    FILE *dst = fopen(maps_out, "w");
    char line[1024];
    while (src && dst && fgets(line, sizeof line, src)) {
        fputs(line, dst);
    }
    if (src) {
        fclose(src);
    }
    if (dst) {
        fclose(dst);
    }
}
