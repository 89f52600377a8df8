// Command nmserve is the streaming detection daemon: the batch pipeline of
// nmdetect exposed as an HTTP/JSON API where each detector session is a
// supervised, checkpoint-backed unit.
//
// Usage:
//
//	nmserve -state dir [-addr localhost:8080] [-addr-file bound.addr]
//	        [-checkpoint-every 1] [-step-deadline 0] [-drain 10s]
//	        [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// API (DESIGN.md §15):
//
//	GET    /healthz                    liveness
//	GET    /v1/sessions                list session statuses
//	POST   /v1/sessions                create (201) or resume (200) a session
//	                                   from a scenario spec, content-ID verified
//	GET    /v1/sessions/{id}           one session's status
//	DELETE /v1/sessions/{id}[?purge=1] checkpoint + unload (optionally delete state)
//	POST   /v1/sessions/{id}/days      ingest the next day, returns the per-day
//	                                   flagger verdict, PAR delta and POMDP actions
//	GET    /v1/sessions/{id}/records   per-day records so far (json or ?format=gob,
//	                                   the batch-equivalence representation)
//
// Sessions checkpoint through internal/checkpoint every -checkpoint-every
// ingested days (default 1: every acknowledged day is durable) and once more
// on graceful shutdown. SIGTERM/SIGINT stop accepting requests, drain
// in-flight ones for up to -drain, checkpoint every session and exit 0; a
// SIGKILLed daemon restarted over the same -state resumes every session from
// its last checkpoint bit-for-bit. -step-deadline is the per-session
// watchdog: a day ingest exceeding it is cancelled and the session evicted
// (its checkpoint stays; re-creating the session resumes it) without taking
// down the daemon.
//
// -addr-file writes the bound address (useful with -addr :0) atomically
// after the listener is up, for harnesses that need to find the port.
//
// Exit codes: 0 success (including signal-driven shutdown), 2 validation
// (bad flags, unusable bind address), 3 runtime failure, 4
// resume-incompatible state directory (foreign or tampered session state).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nmdetect/internal/cli"
	"nmdetect/internal/obs"
	"nmdetect/internal/serve"
)

var (
	obsFlags = cli.NewObs(true)
	addr     = flag.String("addr", "localhost:8080", "listen address for the API")
	addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
	stateDir = flag.String("state", "", "state directory holding the per-session checkpoints (required)")
	ckptK    = flag.Int("checkpoint-every", 1, "days between per-session checkpoints (1 = every acknowledged day is durable)")
	stepDl   = flag.Duration("step-deadline", 0, "per-day watchdog: evict a session whose day ingest exceeds this (0 = no deadline)")
	drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests on SIGTERM/SIGINT")
)

func main() { cli.Main("nmserve", realMain) }

func realMain(ctx context.Context) error {
	if *stateDir == "" {
		return cli.Invalidf("-state is required")
	}
	if err := obsFlags.Start(obs.RunConfig{Cmd: "nmserve"}); err != nil {
		return err
	}

	// Bind before restoring sessions: a bad -addr is a configuration error
	// and should fail fast as one.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return cli.Invalidf("listen %s: %w", *addr, err)
	}
	// Serve and Shutdown close the listener too; closing it again is harmless.
	defer ln.Close()

	srv, err := serve.New(ctx, serve.Config{
		StateDir:        *stateDir,
		CheckpointEvery: *ckptK,
		StepDeadline:    *stepDl,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nmserve: %d session(s) restored from %s\n", srv.Sessions(), *stateDir)

	if *addrFile != "" {
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "nmserve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died out from under us — runtime failure.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	signal.Reset(os.Interrupt, syscall.SIGTERM) // a second signal during drain kills the process the default way

	fmt.Fprintln(os.Stderr, "nmserve: signal received, draining...")
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// Budget exhausted: cut the stragglers, but still checkpoint — the
		// sessions those requests were stepping either finished their day
		// (lock released) or will be rolled back to the last good state.
		fmt.Fprintln(os.Stderr, "nmserve: drain budget exhausted:", err)
		httpSrv.Close()
	}
	if err := srv.CheckpointAll(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "nmserve: all sessions checkpointed, exiting")
	return nil
}
