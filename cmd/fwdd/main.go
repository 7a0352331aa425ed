// Command fwdd runs a real I/O forwarding server (internal/core) on a TCP
// address — the role of the ION-side daemon — optionally over a striped,
// replicated backend tier (internal/stripetier), a seeded chaos backend
// (internal/core/fault) and a crash-safe write-ahead spill tier
// (internal/wal) that is replayed before the daemon listens.
//
//	fwdd -listen :7070 -mode async -workers 4 -bml 256 -backend file -root /tmp/fwd
//	fwdd -metrics :9090 -wal-dir /tmp/fwd-wal -wal-sync always
//	fwdd -backends mem,mem,mem,mem -replicas 2 -fault "seed=7;member=2:eio=1,from=10,until=40"
//
// `fwdd -h` describes every flag. The flags bind one to one onto
// ServerConfig. A command line that breaks one of its rules
// (ServerConfig.Validate) exits 2 before anything is created or replayed;
// a failure while opening the backends or the spill tier exits 1.
//
// On SIGINT/SIGTERM the daemon stops accepting, drains the work queue
// (flushing staged writes), prints a final metrics snapshot to stderr, and
// exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
)

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()
	d, err := cfg.open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fwdd: %v\n", err)
		if errors.Is(err, core.EINVAL) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatal(err)
	}

	if cfg.Metrics != "" {
		ml, err := net.Listen("tcp", cfg.Metrics)
		if err != nil {
			log.Fatalf("fwdd: metrics listener: %v", err)
		}
		log.Printf("fwdd: serving /metrics and /statz on %s", ml.Addr())
		go func() {
			if err := http.Serve(ml, metricsMux(d.srv)); err != nil {
				log.Printf("fwdd: metrics server: %v", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting, let the worker pool drain the work
	// queue (which flushes staged writes), then dump a final snapshot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("fwdd: %v: stopping accept loop and draining staged writes", sig)
		if err := d.srv.Close(); err != nil {
			log.Printf("fwdd: close: %v", err)
		}
	}()

	kind := cfg.Backend
	if d.tier != nil {
		kind = fmt.Sprintf("striped[%d]", d.tier.Members())
	}
	log.Printf("fwdd: %s mode, %d workers, %d MiB BML, %s backend, listening on %s",
		cfg.Mode, cfg.Workers, cfg.BMLMiB, kind, l.Addr())
	if err := d.srv.Serve(l); err != nil {
		log.Fatal(err)
	}
	// Drain every spilled record to the backend before the tiers (and the
	// process) go away.
	d.close()
	fmt.Fprintln(os.Stderr, "fwdd: final metrics snapshot:")
	if err := d.srv.Metrics().WritePrometheus(os.Stderr); err != nil {
		log.Printf("fwdd: snapshot: %v", err)
	}
	log.Print("fwdd: shutdown complete")
}

// metricsMux serves the -metrics listener: /metrics (Prometheus text),
// /statz (JSON) and the net/http/pprof profiles under /debug/pprof/. fwdd
// never serves http.DefaultServeMux (where importing net/http/pprof also
// registers them), so the profiles are reachable only where the metrics are.
func metricsMux(srv *core.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.Metrics().Handler())
	mux.Handle("/statz", srv.Metrics().StatzHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves the named profiles (heap, goroutine, ...)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
