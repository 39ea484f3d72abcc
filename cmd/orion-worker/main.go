// Command orion-worker is a generic Orion executor process: it connects
// to a driver's master over TCP, receives DistArray partitions and
// DefineLoop messages, compiles shipped DSL loop bodies onto the
// bytecode VM, and executes blocks until shut down. Because
// loop code travels in the DefineLoop message, one worker binary serves
// every application.
//
//	orion-worker -master HOST:PORT -peer HOST:PORT [-id N] [-rejoin]
//
// The id is optional: without one the master assigns a free slot. Dial
// failures retry with exponential backoff and jitter, so workers can
// start before (or survive a restart of) the master. With -rejoin a
// worker whose master connection drops reconnects and re-registers —
// the worker half of the runtime's recovery protocol. A master of
// another wire version refuses the hello; the worker then exits 1
// naming both versions, -rejoin or not.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"orion/internal/dslkernel"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// dialRetry tunes the connect/re-register backoff: attempts are spaced
// base, 2*base, 4*base, ... capped at max, each with ±25% jitter so a
// fleet of workers restarted together does not reconnect in lockstep.
const (
	dialBase     = 100 * time.Millisecond
	dialMax      = 3 * time.Second
	dialAttempts = 8
)

// connect builds the executor, retrying the master dial with
// exponential backoff + jitter.
func connect(tr runtime.Transport, master, peer string, id int, rng *rand.Rand) (*runtime.Executor, error) {
	delay := dialBase
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		e, err := runtime.NewExecutor(tr, master, peer, id)
		if err == nil {
			return e, nil
		}
		lastErr = err
		jitter := time.Duration(float64(delay) * (0.75 + 0.5*rng.Float64()))
		fmt.Fprintf(os.Stderr, "orion-worker: connect attempt %d failed (%v); retrying in %v\n", attempt+1, err, jitter)
		time.Sleep(jitter)
		if delay *= 2; delay > dialMax {
			delay = dialMax
		}
	}
	return nil, fmt.Errorf("orion-worker: giving up after %d attempts: %w", dialAttempts, lastErr)
}

func main() {
	var (
		master    = flag.String("master", "", "master address (host:port)")
		peer      = flag.String("peer", "", "this worker's ring endpoint (host:port; use :0 for an ephemeral port)")
		id        = flag.Int("id", -1, "executor id (0..n-1); -1 lets the master assign one")
		rejoin    = flag.Bool("rejoin", false, "reconnect and re-register when the master connection drops (recovery)")
		rejoinTO  = flag.Duration("rejoin-timeout", 0, "give up rejoining this long after the connection drop (0 keeps trying forever)")
		ioTimeout = flag.Duration("io-timeout", 0, "per-write network deadline (0 disables); turns a wedged peer into a prompt error")
		heartbeat = flag.Duration("heartbeat", 0, "master ping interval override (0 keeps the default 500ms; pair with the driver's staleness bound)")
		metrics   = flag.String("metrics-addr", "", "serve runtime metrics (/debug/vars) and profiling (/debug/pprof/) on this address")
	)
	flag.Parse()
	if *master == "" || *peer == "" {
		fmt.Fprintln(os.Stderr, "orion-worker: -master and -peer are required")
		os.Exit(2)
	}
	if *metrics != "" {
		srv, err := obs.ServeMetrics(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "orion-worker:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "orion-worker: metrics at http://%s/debug/vars (report at /report)\n", srv.Addr())
	}
	dslkernel.Install()
	var tr runtime.Transport = runtime.TCP{}
	if *ioTimeout > 0 {
		tr = runtime.Deadline{Inner: tr, Write: *ioTimeout}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	// Rejoin state: the pause before re-registering doubles on every
	// consecutive failed cycle (capped at dialMax) and resets once a
	// session actually registers and runs; the -rejoin-timeout window is
	// measured from the most recent loss.
	rejoinDelay := dialBase
	var lostAt time.Time
	for {
		e, err := connect(tr, *master, *peer, *id, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "orion-worker:", err)
			os.Exit(1)
		}
		if *heartbeat > 0 {
			e.SetPingInterval(*heartbeat)
		}
		sessionStart := time.Now()
		err = <-e.Start()
		if err == nil {
			return // clean shutdown handshake
		}
		// A master of another wire version refuses every hello, so
		// rejoining cannot help.
		if skew := (*runtime.VersionSkewError)(nil); !*rejoin || errors.As(err, &skew) {
			fmt.Fprintln(os.Stderr, "orion-worker:", err)
			os.Exit(1)
		}
		// A session that outlived the backoff cap registered and did
		// work, so this loss is a fresh incident: backoff and the
		// rejoin window both start over.
		if lostAt.IsZero() || time.Since(sessionStart) > dialMax {
			lostAt = time.Now()
			rejoinDelay = dialBase
		}
		if *rejoinTO > 0 && time.Since(lostAt) > *rejoinTO {
			fmt.Fprintf(os.Stderr, "orion-worker: master connection lost (%v); rejoin window %v exhausted\n", err, *rejoinTO)
			os.Exit(1)
		}
		// A lost master mid-loop: the master may be re-forming the
		// fleet — re-register (the master assigns our slot) after a
		// jittered exponential pause so survivors neither stampede the
		// fresh listener nor hammer a master that stays down.
		jitter := time.Duration(float64(rejoinDelay) * (0.75 + 0.5*rng.Float64()))
		fmt.Fprintf(os.Stderr, "orion-worker: master connection lost (%v); rejoining in %v\n", err, jitter)
		time.Sleep(jitter)
		if rejoinDelay *= 2; rejoinDelay > dialMax {
			rejoinDelay = dialMax
		}
		*id = -1 // let the master assign a free slot
	}
}
