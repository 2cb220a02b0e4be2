// Package cli holds the small shared plumbing of the cmd/* binaries:
// signal-driven cancellation and the common parallelism flags, so
// every command cancels cleanly on Ctrl-C and exposes the same
// -parallel/-j knobs over the evaluation engine.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
)

// SignalContext returns a context cancelled on SIGINT or SIGTERM. The
// second signal kills the process immediately (the stdlib stops
// catching once the context is cancelled), so a wedged run can still
// be interrupted.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WorkersFlag registers the -parallel worker-count flag with its -j
// shorthand on the default flag set and returns the bound value. 0
// (the default) selects GOMAXPROCS; 1 forces the sequential path; a
// negative count is a usage error (exit 2) naming the flag.
func WorkersFlag() *int {
	var w workers
	flag.Var(&w, "parallel", "evaluation worker `count` (0 = GOMAXPROCS, 1 = sequential)")
	flag.Var(&w, "j", "shorthand for -parallel")
	return (*int)(&w)
}

// workers is the flag.Value behind WorkersFlag.
type workers int

func (w *workers) String() string { return strconv.Itoa(int(*w)) }

func (w *workers) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("worker count %d is negative", n)
	}
	*w = workers(n)
	return nil
}

// CodeConnLost is the exit code for a client daemon whose connection
// to the AP died with reconnection disabled — distinct from generic
// failure (1), usage mistakes (2), and interruption (130) so process
// supervisors can restart-on-disconnect without also restarting on
// misconfiguration.
const CodeConnLost = 3

// Exit prints err the conventional way and exits non-zero, using exit
// code 130 for an interrupt (the shell convention for SIGINT) so
// cancellation is distinguishable from failure.
func Exit(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}

// ExitCode prints err and exits with the given code — for failures
// that carry a dedicated code (e.g. CodeConnLost).
func ExitCode(prog string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(code)
}

// Abort exits through Exit when ctx has been cancelled; otherwise it
// is a no-op. Short analytic loops call it between sweep points so
// every binary honours Ctrl-C the same way.
func Abort(ctx context.Context, prog string) {
	if err := ctx.Err(); err != nil {
		Exit(prog, err)
	}
}

// Usagef prints a usage-level complaint (bad flag value, unknown
// scenario, malformed argument) and exits 2, the flag package's
// convention for command-line mistakes.
func Usagef(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	os.Exit(2)
}
